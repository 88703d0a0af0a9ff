"""The change-of-basis matrix between the standard and cup-diagram bases,
its exact integer inverse, and machine checks of its structure.

Row and column indices both run over the canonical tableau order (rank,
then lexicographic top row).  Column T holds the cup-diagram expansion of
the column matching of T, so entry[S][T] counts how often the cup diagram
of S appears as a sink when that matching is resolved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .actions import DEFAULT_STEP_BUDGET, cup_polytabloid
from .diagrams import cup_of_tableau
from .resolution import DEFAULT_NODE_BUDGET, resolve_arcs
from .young import (
    DEFAULT_MAX_N,
    StandardTableau,
    build_tableau_graph,
    cached_on_n,
    enumerate_syt,
    first_row_dominates,
    leq,
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
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": c.witness,
                    "informational": c.informational,
                }
                for c in self.checks
            ],
            "elapsed_seconds": self.elapsed_seconds,
            "timestamp": self.timestamp,
        }


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


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


def verify_unitriangular(matrix: TransitionMatrix) -> VerificationReport:
    """Diagonal all ones, and nonzero entries only on comparable pairs."""
    with _Timer() as timer:
        graph = build_tableau_graph(matrix.n, max_n=matrix.n)
        checks = []
        bad = next(
            (t for t in range(matrix.size) if matrix.entry(t, t) != 1), None
        )
        checks.append(
            Check(
                "diagonal-ones",
                bad is None,
                None if bad is None else matrix.index[bad].row_word(),
            )
        )
        witness = None
        for s in range(matrix.size):
            for t in range(matrix.size):
                if matrix.entry(s, t) != 0 and not leq(
                    matrix.index[s], matrix.index[t], graph
                ):
                    witness = (
                        f"S={matrix.index[s].row_word()}, "
                        f"T={matrix.index[t].row_word()}, "
                        f"entry={matrix.entry(s, t)}"
                    )
                    break
            if witness:
                break
        checks.append(Check("support-within-order", witness is None, witness))
    return VerificationReport(matrix.n, checks, timer.elapsed, _stamp())


def verify_positivity(matrix: TransitionMatrix) -> VerificationReport:
    """entry[S][T] > 0 exactly when S is below T in the partial order."""
    with _Timer() as timer:
        graph = build_tableau_graph(matrix.n, max_n=matrix.n)
        witness = None
        for s in range(matrix.size):
            for t in range(matrix.size):
                positive = matrix.entry(s, t) > 0
                comparable = leq(matrix.index[s], matrix.index[t], graph)
                if positive != comparable:
                    witness = (
                        f"S={matrix.index[s].row_word()}, "
                        f"T={matrix.index[t].row_word()}, "
                        f"entry={matrix.entry(s, t)}, comparable={comparable}"
                    )
                    break
            if witness:
                break
        checks = [Check("positive-iff-comparable", witness is None, witness)]
    return VerificationReport(matrix.n, checks, timer.elapsed, _stamp())


def inverse_matrix(matrix: TransitionMatrix) -> tuple[tuple[int, ...], ...]:
    """Exact inverse of a unitriangular matrix by back-substitution."""
    size = matrix.size
    for t in range(size):
        if matrix.entry(t, t) != 1:
            raise ValueError("matrix diagonal must be all ones")
        if any(matrix.entry(s, t) != 0 for s in range(t + 1, size)):
            raise ValueError("matrix must be upper-triangular")
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
    """Straightening each cup diagram reproduces the inverse matrix column."""
    with _Timer() as timer:
        witness = None
        try:
            inverse = inverse_matrix(matrix)
        except ValueError as exc:
            witness = f"matrix not invertible over the order: {exc}"
        if witness is None:
            position = {t.columns(): k for k, t in enumerate(matrix.index)}
            for col, tab in enumerate(matrix.index):
                _, vec = cup_polytabloid(cup_of_tableau(tab), step_budget)
                computed = [0] * matrix.size
                for key, coeff in vec.terms.items():
                    computed[position[key.columns]] = coeff
                if computed != [row[col] for row in inverse]:
                    witness = f"web of {tab.row_word()}"
                    break
        checks = [Check("straightening-matches-inverse", witness is None, witness)]
    return VerificationReport(matrix.n, checks, timer.elapsed, _stamp())


def order_conjecture_report(n: int, max_n: int = DEFAULT_MAX_N) -> VerificationReport:
    """Compare the reachability order with first-row dominance on all pairs.

    One direction always holds and is reported as a hard check: each graph
    edge only replaces a top-row entry by a smaller one, so reachability
    forces componentwise dominance.  The converse is an open question; its
    status is evidence only and never fails a build.
    """
    with _Timer() as timer:
        graph = build_tableau_graph(n, max_n)
        tableaux = graph.vertices
        theorem_witness = None
        converse_witness = None
        for s in tableaux:
            for t in tableaux:
                comparable = leq(s, t, graph)
                dominates = first_row_dominates(s, t)
                if comparable and not dominates and theorem_witness is None:
                    theorem_witness = f"S={s.row_word()}, T={t.row_word()}"
                if dominates and not comparable and converse_witness is None:
                    converse_witness = f"S={s.row_word()}, T={t.row_word()}"
        checks = [
            Check(
                "comparable-implies-dominates",
                theorem_witness is None,
                theorem_witness,
            ),
            Check(
                "dominates-implies-comparable",
                converse_witness is None,
                converse_witness,
                informational=True,
            ),
        ]
    return VerificationReport(n, checks, timer.elapsed, _stamp())


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
