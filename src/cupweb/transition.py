"""The change-of-basis matrix between the standard and cup-diagram bases,
its exact integer inverse, and machine checks of its structure.

Row and column indices both run over the canonical tableau order (rank,
then lexicographic top row).  Column T holds the cup-diagram expansion of
the column matching of T, so entry[S][T] counts how often the cup diagram
of S appears as a sink when that matching is resolved.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import reduce
from operator import and_

from .actions import DEFAULT_STEP_BUDGET, cup_polytabloid
from .diagrams import cup_of_tableau
from .resolution import DEFAULT_NODE_BUDGET, resolve_arcs
from .young import (
    DEFAULT_MAX_N,
    StandardTableau,
    build_tableau_graph,
    cached_on_n,
    enumerate_syt,
)

ORDER_DESCRIPTION = "rank, then lexicographic top row"


@dataclass(frozen=True)
class TransitionMatrix:
    """Exact integer matrix entry[S][T] over the canonical tableau order."""

    n: int
    index: tuple[StandardTableau, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.index)

    def entry(self, s: int, t: int) -> int:
        return self.entries[s][t]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "order": ORDER_DESCRIPTION,
            "index": [t.to_json() for t in self.index],
            "entries": [list(row) for row in self.entries],
        }


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None
    informational: bool = False


@dataclass
class VerificationReport:
    n: int
    checks: list[Check] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    timestamp: str = ""

    @property
    def passed(self) -> bool:
        """All non-informational checks passed."""
        return all(c.passed for c in self.checks if not c.informational)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "elapsed_seconds": self.elapsed_seconds,
            "timestamp": self.timestamp,
        }


def _report(n: int, checks: list[Check], start: float) -> VerificationReport:
    elapsed = time.perf_counter() - start
    stamp = datetime.now(timezone.utc).isoformat()
    return VerificationReport(n, checks, elapsed, stamp)


@cached_on_n
def transition_matrix(n: int) -> TransitionMatrix:
    """Resolve every column matching and collect sink multiplicities."""
    index = enumerate_syt(n, max_n=n)
    row_of = {cup_of_tableau(t).arcs: k for k, t in enumerate(index)}
    size = len(index)
    entries = [[0] * size for _ in range(size)]
    for col, tab in enumerate(index):
        sinks, _ = resolve_arcs(tab.columns(), DEFAULT_NODE_BUDGET)
        for arcs, mult in sinks:
            entries[row_of[arcs]][col] = mult
    return TransitionMatrix(n, index, tuple(tuple(row) for row in entries))


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
    return [sum(1 << t for t, e in enumerate(r) if keep(e)) for r in matrix.entries]


def _up_sets(matrix: TransitionMatrix) -> tuple[int, ...]:
    """Bit t of the s-th mask is set when index[s] <= index[t] in the order."""
    graph = build_tableau_graph(matrix.n, max_n=matrix.n)
    at = [graph.position(t) for t in matrix.index]
    up = graph.descendants
    if at != list(range(len(up))):  # a hand-built index: renumber the bits
        up = tuple(sum((up[p] >> q & 1) << t for t, q in enumerate(at)) for p in at)
    return up


def _pair_words(index: tuple[StandardTableau, ...], pair) -> str | None:
    return pair and f"S={index[pair[0]].row_word()}, T={index[pair[1]].row_word()}"


def verify_unitriangular(matrix: TransitionMatrix) -> VerificationReport:
    """Diagonal all ones, and nonzero entries only on comparable pairs."""
    start = time.perf_counter()
    bad = next((t for t in range(matrix.size) if matrix.entry(t, t) != 1), None)
    diagonal = None if bad is None else matrix.index[bad].row_word()
    up = _up_sets(matrix)
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
    """entry[S][T] > 0 exactly when S is below T in the partial order."""
    start = time.perf_counter()
    up = _up_sets(matrix)
    pair = _first_violation(
        positive ^ u for positive, u in zip(_row_masks(matrix, lambda e: e > 0), up)
    )
    witness = pair and (
        f"{_pair_words(matrix.index, pair)}, entry={matrix.entry(*pair)}, "
        f"comparable={bool(up[pair[0]] >> pair[1] & 1)}"
    )
    checks = [Check("positive-iff-comparable", witness is None, witness)]
    return _report(matrix.n, checks, start)


def _sparse_columns(matrix: TransitionMatrix) -> list[list[tuple[int, int]]]:
    """Column t as the ``(s, entry[s][t])`` pairs with a nonzero entry."""
    return [[(s, e) for s, e in enumerate(col) if e] for col in zip(*matrix.entries)]


def _unitriangular_fault(matrix: TransitionMatrix, columns) -> str | None:
    """Why M is not unitriangular, judged at its first failing column: a
    diagonal entry other than 1, else a nonzero entry below the diagonal."""
    bad = _first_violation(
        (matrix.entry(t, t) != 1) << t | sum(1 << s for s, _ in col if s > t)
        for t, col in enumerate(columns)
    )
    if bad is None:
        return None
    t, s = bad
    if s == t:
        return "matrix diagonal must be all ones"
    return "matrix must be upper-triangular"


def inverse_matrix(matrix: TransitionMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unitriangular matrix by back-substitution."""
    fault = _unitriangular_fault(matrix, _sparse_columns(matrix))
    if fault:
        raise ValueError(fault)
    size = matrix.size
    inverse = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for j in range(size):
        for i in range(j - 1, -1, -1):
            inverse[i][j] = -sum(
                matrix.entry(i, k) * inverse[k][j] for k in range(i + 1, j + 1)
            )
    return tuple(tuple(row) for row in inverse)


def verify_psi(
    matrix: TransitionMatrix, step_budget: int = DEFAULT_STEP_BUDGET
) -> VerificationReport:
    """Straightening each cup diagram gives the matching column of M^-1.

    For a unitriangular M that is M·psi_c = e_c for every straightened
    column psi_c, checked on the sparse columns of M.
    """
    start = time.perf_counter()
    columns = _sparse_columns(matrix)
    fault = _unitriangular_fault(matrix, columns)
    witness = fault and f"matrix not invertible over the order: {fault}"
    position = {t.columns(): k for k, t in enumerate(matrix.index)}
    for c, tab in enumerate(matrix.index if witness is None else ()):
        _, vec = cup_polytabloid(cup_of_tableau(tab), step_budget)
        product: dict[int, int] = {}
        for key, coeff in vec.terms.items():
            for s, e in columns[position[key.columns]]:
                product[s] = product.get(s, 0) + e * coeff
        if {s: v for s, v in product.items() if v} != {c: 1}:
            witness = f"web of {tab.row_word()}"
            break
    checks = [Check("straightening-matches-inverse", witness is None, witness)]
    return _report(matrix.n, checks, start)


def _dominance_masks(vertices: tuple[StandardTableau, ...]) -> list[int]:
    """Bit t of the s-th mask is set when ``s.top[j] >= t.top[j]`` for all j."""
    at_most: dict[tuple[int, int], int] = {}  # (j, v): vertices with top[j] <= v
    for t, tab in enumerate(vertices):
        for j, v in enumerate(tab.top):
            for w in range(v, 2 * tab.n + 1):
                at_most[j, w] = at_most.get((j, w), 0) | 1 << t
    return [reduce(and_, (at_most[j, v] for j, v in enumerate(tab.top)))
            for tab in vertices]


def order_conjecture_report(n: int, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Compare the reachability order with first-row dominance on all pairs.

    One direction always holds and is reported as a hard check: each graph
    edge only replaces a top-row entry by a smaller one, so reachability
    forces componentwise dominance.  The converse is an open question; its
    status is evidence only and never fails a build.
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


def matrix_to_csv(
    entries: tuple[tuple[int, ...], ...],
    index: tuple[StandardTableau, ...],
    title: str,
) -> str:
    """Comment header (title, order, index row words), then plain integer rows."""
    lines = [
        f"# {title}",
        f"# order: {ORDER_DESCRIPTION}",
        "# index: " + ", ".join(t.row_word() for t in index),
    ]
    lines += [",".join(str(e) for e in row) for row in entries]
    return "\n".join(lines) + "\n"
