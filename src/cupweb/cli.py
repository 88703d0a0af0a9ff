"""Command-line interface.

Subcommands: enumerate, graph, matrix, inverse, resolve, witness, verify,
render.  Exit codes: 0 success, 1 verification failure, 2 usage or input
error.  Output goes to stdout unless --output is given; the optional
CUPWEB_OUTPUT_DIR environment variable prefixes relative output paths.

Each ``cmd_*`` returns its document and exit code; ``main`` hands the
document to ``_emit``, the one writer.  Text formats are a ``str``; JSON is
encoded into the stream as it is written, so ``matrix -n 8 --format json``
peaks at 66 MB for an 18.8 MB file.
``resolve`` prints its sinks sorted: ``resolve_full`` leaves their order open.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .actions import DEFAULT_STEP_BUDGET
from .diagrams import Matching, _dot, column_matching, render_ascii, render_tikz
from .resolution import (
    DEFAULT_NODE_BUDGET,
    build_resolution_graph,
    check_witness,
    resolution_graph_dot,
    resolve_full,
    resolve_step,
    sinks_to_json,
    witness_path,
)
from .transition import (
    TransitionMatrix,
    inverse_matrix,
    order_conjecture_report,
    transition_matrix,
    verify_positivity,
    verify_psi,
    verify_unitriangular,
)
from .young import (
    DEFAULT_MAX_N,
    StandardTableau,
    TableauGraph,
    build_tableau_graph,
    rank,
)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _load_json_arg(text: str):
    try:
        if text == "-":
            return json.load(sys.stdin)
        if text.startswith("@"):
            return json.loads(Path(text[1:]).read_text())
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _parse_strategy(text: str):
    if text == "first":
        return "first"
    if text.startswith("scripted:"):
        try:
            return tuple(int(x) for x in text[len("scripted:"):].split(","))
        except ValueError:
            pass
    raise ValueError(f"unknown strategy {text!r}; use 'first' or "
                     "'scripted:i,j,...' with integers i, j, ...")


def _effective_max_n(args) -> int:
    if getattr(args, "force", False):
        return max(args.n, args.max_n)
    return args.max_n


_CHUNK = 1 << 16  # characters per write of a text document


def _emit(args, doc) -> None:
    """Write ``doc`` to stdout or --output: a ``str`` as is, else JSON as it encodes."""
    if args.output is None:
        out = nullcontext(sys.stdout)
    else:
        path = Path(args.output)
        if not path.is_absolute():
            base = os.environ.get("CUPWEB_OUTPUT_DIR")
            if base:
                path = Path(base) / path
        out = path.open("w")
    with out as fh:
        if isinstance(doc, str):
            # In pieces: one large write reports a partial count, not a broken pipe.
            for k in range(0, len(doc), _CHUNK):
                fh.write(doc[k:k + _CHUNK])
        else:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        fh.flush()  # a failed write of the last piece must fail the command too


def tableau_graph_dot(graph: TableauGraph) -> str:
    return _dot("tableau_graph", "t", (v.row_word() for v in graph.vertices),
                ((a, b, f"s_{i}") for a, b, i in graph.edges))


def tableau_graph_json(graph: TableauGraph) -> dict:
    return {
        "n": graph.n,
        "vertices": [v.to_json() for v in graph.vertices],
        "edges": [list(e) for e in graph.edges],
    }


def cmd_enumerate(args):
    graph = build_tableau_graph(args.n, _effective_max_n(args))
    records = [
        {
            "top": list(t.top),
            "bottom": list(t.bottom),
            "rank": rank(t, graph),
            "word": t.row_word(),
        }
        for t in graph.vertices
    ]
    if args.format == "json":
        return records, 0
    return "".join(f"rank={r['rank']}  {r['word']}\n" for r in records), 0


def cmd_graph(args):
    graph = build_tableau_graph(args.n, _effective_max_n(args))
    if args.format == "dot":
        return tableau_graph_dot(graph), 0
    return tableau_graph_json(graph), 0


def cmd_matrix(args):
    matrix = transition_matrix(args.n, _effective_max_n(args))
    title = f"transition matrix, n={args.n}"
    if args.command == "inverse":
        matrix, title = inverse_matrix(matrix), f"inverse {title}"
    return (matrix.to_csv(title) if args.format == "csv" else matrix.to_json()), 0


def cmd_resolve(args):
    m = Matching.from_json(_load_json_arg(args.matching))
    strategy = _parse_strategy(args.strategy)
    if args.format == "json":
        # The sinks do not depend on the strategy, so it is only validated.
        return sinks_to_json(m.n2, resolve_full(m, args.node_budget)), 0
    graph = build_resolution_graph(m, strategy, args.node_budget)
    return resolution_graph_dot(graph), 0


def cmd_witness(args):
    t = StandardTableau.from_json(_load_json_arg(args.tableau_t))
    s = StandardTableau.from_json(_load_json_arg(args.tableau_s))
    script = witness_path(t, s)  # a DominanceError exits 2 through main
    cur = column_matching(t.columns())
    intermediates = [cur.to_json()]
    for move in script:
        cur = resolve_step(cur, move.crossing, move.kind)
        intermediates.append(cur.to_json())
    valid = check_witness(t, s, script)
    payload = {
        "moves": [m.to_json() for m in script],
        "intermediates": intermediates,
        "final": cur.to_json(),
        "valid": valid,
    }
    return payload, 0 if valid else 1


def _corrupted(matrix: TransitionMatrix) -> TransitionMatrix:
    # One more at the last row of column 0; at size 1, no diagonal entry.
    last = matrix.size - 1
    col = {**matrix.columns[0], last: matrix.entry(last, 0) + 1} if last else {}
    return TransitionMatrix(matrix.n, matrix.index, (col, *matrix.columns[1:]))


def cmd_verify(args):
    if args.self_test and args.which == "conjecture":
        raise ValueError("--self-test corrupts the matrix, which the conjecture "
                         "check does not read")
    matrix = transition_matrix(args.n, _effective_max_n(args))
    if args.self_test:
        matrix = _corrupted(matrix)
    suites = {
        "unitriangular": lambda: verify_unitriangular(matrix),
        "positivity": lambda: verify_positivity(matrix),
        "psi": lambda: verify_psi(matrix, step_budget=args.step_budget),
        "conjecture": lambda: order_conjecture_report(args.n, _effective_max_n(args)),
    }
    which = list(suites) if args.which == "all" else [args.which]
    reports = [suites[name]() for name in which]
    return [r.to_json() for r in reports], 0 if all(r.passed for r in reports) else 1


def cmd_render(args):
    obj = _load_json_arg(args.object)
    if isinstance(obj, dict) and "arcs" in obj:
        m = Matching.from_json(obj)
        if args.format == "dot":
            raise ValueError("matchings render as ascii or tikz")
        return (render_ascii if args.format == "ascii" else render_tikz)(m), 0
    if isinstance(obj, dict) and "tableau_graph" in obj:
        if args.format != "dot":
            raise ValueError("tableau graphs render as dot")
        n = obj["tableau_graph"]
        if type(n) is not int:  # not isinstance: True is an int
            raise ValueError(f"tableau_graph size {json.dumps(n)} is not an integer")
        if not 1 <= n <= DEFAULT_MAX_N:  # render has no --max-n or --force
            raise ValueError(f"tableau_graph size must be from 1 to {DEFAULT_MAX_N}; "
                             "cupweb graph -n N --format dot --force draws larger graphs")
        return tableau_graph_dot(build_tableau_graph(n)), 0
    raise ValueError('object must contain "arcs" or "tableau_graph"')


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cupweb",
        description="Exact two-row tableau / cup diagram calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        if with_n:
            p.add_argument("-n", type=_positive, required=True,
                           help="half the number of boxes/dots")
            p.add_argument("--max-n", type=_positive, default=DEFAULT_MAX_N,
                           help="resource limit on n (default %(default)s)")
            p.add_argument("--force", action="store_true",
                           help="lift the resource limit to the requested n")
        p.add_argument("-o", "--output", default=None,
                       help="output file (default stdout)")

    p = sub.add_parser("enumerate", help="list all tableaux with their ranks")
    add_common(p)
    p.add_argument("--format", choices=["json", "ascii"], default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="export the tableau graph")
    add_common(p)
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("matrix", help="export the transition matrix")
    add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("inverse", help="export the inverse transition matrix")
    add_common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("resolve", help="resolve a matching into cup diagrams")
    add_common(p, with_n=False)
    p.add_argument("matching", help='matching JSON, @file, or "-" for stdin')
    p.add_argument("--strategy", default="first",
                   help="'first' or 'scripted:i,j,...': the nodes expanded in "
                        "turn resolve crossing i, j, ... of their sorted crossings, "
                        "from 0, the list repeating; each index is taken modulo "
                        "that node's crossing count, so -1 picks the last "
                        "(default first)")
    p.add_argument("--node-budget", type=_positive, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("witness", help="move script from a column matching to a cup")
    add_common(p, with_n=False)
    p.add_argument("tableau_t", help="tableau T as JSON (source matching)")
    p.add_argument("tableau_s", help="tableau S as JSON (target cup diagram)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="run the verification suites")
    add_common(p)
    p.add_argument("which",
                   choices=["unitriangular", "positivity", "psi",
                            "conjecture", "all"])
    p.add_argument("--self-test", action="store_true",
                   help="corrupt one entry first; the run must then fail")
    p.add_argument("--step-budget", type=_positive, default=DEFAULT_STEP_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw a matching or the tableau graph")
    add_common(p, with_n=False)
    p.add_argument("object", help="matching JSON or {\"tableau_graph\": n}")
    p.add_argument("--format", choices=["ascii", "tikz", "dot"],
                   default="ascii")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.func(args)
        _emit(args, doc)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
