"""Output checks, run outside the timed region against ``oracle``.

Each check returns a list of problems; an empty list means the output
passed.  ``selfcheck.py`` shows that each one rejects a corrupted output.
"""

from __future__ import annotations

import json
import random

import oracle

HARD_CHECKS = {
    "diagonal-ones", "support-within-order", "positive-iff-comparable",
    "straightening-matches-inverse", "comparable-implies-dominates",
}


def check_report(text: str, n: int) -> list[str]:
    """``verify ... all`` output: every hard check present and passed."""
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    seen = set()
    for report in reports:
        if report.get("n") != n:
            problems.append(f"report for n={report.get('n')}, expected {n}")
        for check in report.get("checks", []):
            seen.add(check["name"])
            if check["name"] in HARD_CHECKS and not check["passed"]:
                problems.append(f"check {check['name']} failed: {check['witness']}")
    missing = HARD_CHECKS - seen
    if missing:
        problems.append(f"missing checks: {sorted(missing)}")
    return problems


def _parse_word(word: str):
    top, bottom = word.split("/")
    return tuple(map(int, top.split())), tuple(map(int, bottom.split()))


def check_matrix_csv(text: str, order: oracle.TableauOrder, seed: int,
                     sample: int) -> list[str]:
    """The transition-matrix CSV against the order and the reference resolver.

    The index must list SYT(n, n) by rank, then top row; the matrix must be
    square with ones on the diagonal, zeros below it and no negative entry;
    an entry must be positive exactly on comparable pairs; and ``sample``
    seeded columns must equal the reference resolver's sink counts.
    """
    lines = text.splitlines()
    index_line = next((ln for ln in lines if ln.startswith("# index: ")), None)
    if index_line is None:
        return ["no index header"]
    index = [_parse_word(w) for w in index_line[len("# index: "):].split(", ")]
    if index != order.vertices:
        return ["index is not SYT(n, n) in rank, then top-row order"]
    size = len(index)
    try:
        rows = [list(map(int, ln.split(","))) for ln in lines if not ln.startswith("#")]
    except ValueError as exc:
        return [f"non-integer entry: {exc}"]
    if len(rows) != size or any(len(r) != size for r in rows):
        return [f"matrix is not {size}x{size}"]
    problems = []
    for s, row in enumerate(rows):
        if row[s] != 1:
            problems.append(f"diagonal entry {s} is {row[s]}")
        if any(row[:s]):
            problems.append(f"row {s} has a nonzero entry below the diagonal")
        if min(row) < 0:
            problems.append(f"row {s} has a negative entry")
        positive = int("".join("1" if e > 0 else "0" for e in reversed(row)), 2)
        if positive != order.desc[s]:
            t = ((positive ^ order.desc[s]) & -(positive ^ order.desc[s])).bit_length() - 1
            problems.append(f"entry ({s},{t}) = {row[t]} but comparable={order.leq(s, t)}")
        if len(problems) > 10:
            return problems
    rng = random.Random(seed)
    memo: dict = {}
    for t in rng.sample(range(size), min(sample, size)):
        top, bottom = order.vertices[t]
        sinks = oracle.resolve(tuple(sorted(zip(top, bottom))), memo)
        expected = [0] * size
        for arcs, mult in sinks.items():
            tab = (tuple(a for a, _ in arcs), tuple(sorted(b for _, b in arcs)))
            expected[order.position[tab]] = mult
        if [row[t] for row in rows] != expected:
            problems.append(f"column {t} differs from the reference resolution")
    return problems


def check_queries(queries, results) -> list[str]:
    """Every query-mix result against an independent computation."""
    if len(results) != len(queries):
        return [f"{len(results)} results for {len(queries)} queries"]
    problems = []
    memo: dict = {}
    for k, ((kind, data), result) in enumerate(zip(queries, results)):
        if isinstance(result, str):
            continue  # a failed query, counted in ``failed``
        ok = True
        if kind == "resolve":
            expected = oracle.resolve(tuple(sorted(map(tuple, data))), memo)
            ok = _as_counts(result) == expected
        elif kind == "witness":
            (t, s), (moves, valid) = data, result
            end = oracle.replay_moves(tuple(zip(t[0], t[1])), moves)
            ok = valid is True and end == oracle.cup_arcs(s[0])
        elif kind == "straighten":
            terms = [(tuple(map(tuple, cols)), c) for cols, c in result]
            ok = all(oracle.is_standard_columns(cols) for cols, _ in terms) and (
                oracle.combination_expansion(terms)
                == oracle.tabloid_expansion(tuple(map(tuple, data)))
            )
        else:
            arcs, i = data
            arcs = tuple(map(tuple, arcs))
            if (i, i + 1) in arcs:
                expected = {arcs: -1}
            else:
                swap = {i: i + 1, i + 1: i}
                swapped = tuple(sorted(
                    tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in arcs
                ))
                expected = oracle.resolve(swapped, memo)
            ok = _as_counts(result) == expected
        if not ok:
            problems.append(f"query {k} ({kind}) disagrees with the reference")
            if len(problems) > 10:
                break
    return problems


def _as_counts(pairs) -> dict:
    return {tuple(map(tuple, arcs)): c for arcs, c in pairs}
