"""Show that every output check accepts cupweb's real output and rejects a
deliberately corrupted copy of it.

    python3 perfbench/selfcheck.py

Uses small sizes (n = 4 for the report and the matrix, a few queries of
each kind at n = 8) and prints one line per case; exits 1 if any check
accepts a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
import oracle
import worker  # puts the checkout's src on sys.path
from inputs import query_list

import cupweb
from cupweb.cli import main as cli


def _cli_text(argv) -> str:
    with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
        path = os.path.join(tmp, "out")
        cli(argv + ["-o", path])
        with open(path) as fh:
            return fh.read()


def _report_cases():
    text = _cli_text(["verify", "-n", "4", "all"])
    reports = json.loads(text)

    def edit(fn):
        copy = json.loads(text)
        fn(copy)
        return json.dumps(copy)

    def fail_psi(r):
        r[2]["checks"][0]["passed"] = False

    def drop_positivity(r):
        del r[1]

    def wrong_n(r):
        r[0]["n"] = 5

    assert reports[2]["checks"][0]["name"] == "straightening-matches-inverse"
    check = lambda t: checks.check_report(t, 4)  # noqa: E731
    yield "report: genuine", check, text, True
    yield "report: a hard check failed", check, edit(fail_psi), False
    yield "report: a check missing", check, edit(drop_positivity), False
    yield "report: wrong n", check, edit(wrong_n), False


def _matrix_cases():
    order = oracle.TableauOrder(4)
    text = _cli_text(["matrix", "-n", "4", "--format", "csv"])
    head = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = [list(map(int, ln.split(","))) for ln in text.splitlines()
            if not ln.startswith("#")]
    last = len(rows) - 1

    def edit(fn):
        copy = [list(r) for r in rows]
        fn(copy)
        return "\n".join(head + [",".join(map(str, r)) for r in copy]) + "\n"

    def zero_comparable(m):
        m[0][last] = 0  # the minimum lies below every tableau

    def bump_entry(m):
        t = next(t for t in range(last, -1, -1) if m[0][t] > 1)
        m[0][t] += 1  # still positive: only the reference resolver sees it

    def below_diagonal(m):
        m[last][0] = 1

    def diagonal(m):
        m[3][3] = 2

    def negative(m):
        s, t = next((s, t) for s in range(len(m)) for t in range(s, len(m))
                    if not order.leq(s, t))
        m[s][t] = -1

    def swap_index():
        words = head[2][len("# index: "):].split(", ")
        words[1], words[2] = words[2], words[1]
        return "\n".join(head[:2] + ["# index: " + ", ".join(words)]
                         + [",".join(map(str, r)) for r in rows]) + "\n"

    def check(t):
        return checks.check_matrix_csv(t, order, 0, len(rows))

    yield "matrix: genuine", check, text, True
    yield "matrix: comparable entry zeroed", check, edit(zero_comparable), False
    yield "matrix: positive entry changed", check, edit(bump_entry), False
    yield "matrix: entry below the diagonal", check, edit(below_diagonal), False
    yield "matrix: diagonal entry 2", check, edit(diagonal), False
    yield "matrix: negative entry", check, edit(negative), False
    yield "matrix: index out of order", check, swap_index(), False
    yield "matrix: a row missing", check, edit(lambda m: m.pop()), False


def _query_cases():
    queries = query_list(0, per_kind=4)
    calls = worker.prepare_calls(cupweb, queries)
    run = {
        "resolve": cupweb.resolve_full,
        "witness": lambda t, s: (cupweb.witness_path(t, s), True),
        "straighten": cupweb.garnir_straighten,
        "act": cupweb.act_web,
    }
    plain = json.loads(json.dumps(
        [worker.plain_result(kind, run[kind](*args)) for kind, args in calls]))

    def first(kind):
        return next(k for k, (q, _) in enumerate(queries) if q == kind)

    def edit(kind, fn):
        copy = json.loads(json.dumps(plain))
        fn(copy[first(kind)])
        return copy

    def bump_first(result):
        result[0][1] += 1

    def flip_kind(result):
        move = result[0][-1]
        move[2] = "V" if move[2] == "VV" else "VV"

    def check(r):
        return checks.check_queries(queries, r)

    yield "queries: genuine", check, plain, True
    yield "queries: sink multiplicity changed", check, edit("resolve", bump_first), False
    yield "queries: resolve sink dropped", check, edit("resolve", lambda r: r.pop()), False
    yield "queries: witness move flipped", check, edit("witness", flip_kind), False
    yield "queries: witness move dropped", check, edit("witness", lambda r: r[0].pop()), False
    yield "queries: witness reported invalid", check, \
        edit("witness", lambda r: r.__setitem__(1, False)), False
    yield "queries: straightened coefficient changed", check, \
        edit("straighten", bump_first), False
    yield "queries: act_web coefficient changed", check, edit("act", bump_first), False


def main() -> int:
    bad = 0
    for cases in (_report_cases(), _matrix_cases(), _query_cases()):
        for name, check, output, should_pass in cases:
            problems = check(output)
            ok = (not problems) == should_pass
            bad += not ok
            verdict = f"rejected ({problems[0]})" if problems else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
