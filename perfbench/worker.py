"""One benchmark session in a fresh interpreter.

Run by ``run.py``, never by hand.  The session imports cupweb from the
checkout's ``src`` (for query-mix it also warms the n = 8 tableau graph, as
a library user would), prints ``ready`` on stdout, builds its inputs,
runs the timed region and prints one JSON line with what it measured.
Everything before ``ready`` is set-up time; input building is not timed.
A ``Probe`` runs from the first line of ``main``; every time reported is
in reference seconds (see ``probe.py``), and the raw timed-region seconds
are reported beside them as ``raw_wall_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

from probe import SETUP_INTERVAL_S, Probe  # noqa: E402
from tracing import Tracer, peak_rss_mb  # noqa: E402

COMMANDS = {
    "certify-n7": ["verify", "-n", "7", "all"],
    "matrix-n8": ["matrix", "-n", "8", "--format", "csv"],
    "selftest": ["verify", "-n", "4", "all", "--self-test"],
}


class _Window:
    """The timed region: probe-free seconds, raw seconds and the speed scale."""

    def __init__(self, probe):
        self.probe = probe
        self.first = probe.mark()
        self.raw = time.perf_counter()
        self.start = probe.clock()

    def close(self) -> dict:
        wall = self.probe.clock() - self.start
        raw = time.perf_counter() - self.raw
        return {"wall_s": wall, "raw_wall_s": raw, "scale": self.probe.scale(self.first)}


def _cli_session(args, probe, tracer) -> dict:
    from cupweb.cli import main

    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    argv = COMMANDS[args.workload] + ["-o", args.output]
    window = _Window(probe)
    try:
        code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code, error = None, repr(exc)
    else:
        error = None
    out = window.close()
    out.update(op_s=[out["wall_s"]], peak_rss_mb=peak_rss_mb(),
               failed=int(code is None), exit=code, error=error)
    if os.path.exists(args.output):
        out["output_bytes"] = os.path.getsize(args.output)
    return out


def prepare_calls(cupweb, queries):
    """cupweb objects for each query; built before the timed region."""
    calls = []
    for kind, data in queries:
        if kind == "resolve":
            calls.append((kind, (cupweb.Matching(data),)))
        elif kind == "witness":
            t, s = (cupweb.StandardTableau(*tab) for tab in data)
            calls.append((kind, (t, s)))
        elif kind == "straighten":
            calls.append((kind, (cupweb.TwoRowTableau(data),)))
        else:
            arcs, i = data
            calls.append((kind, (i, cupweb.DiagramVector.unit(cupweb.CupDiagram(arcs)))))
    return calls


def plain_result(kind, result):
    """The result as sorted plain tuples, for checking and hashing."""
    if kind == "resolve":
        return sorted((w.arcs, k) for w, k in result.items())
    if kind == "witness":
        script, valid = result
        return [[[list(m.crossing.left), list(m.crossing.right), m.kind.label]
                 for m in script], valid]
    if kind == "straighten":
        return sorted((key.columns, c) for key, c in result.terms.items())
    return sorted((w.arcs, c) for w, c in result.terms.items())


def _query_session(args, probe) -> dict:
    import cupweb
    from inputs import query_list

    def witness(t, s):
        script = cupweb.witness_path(t, s)
        return script, cupweb.check_witness(t, s, script)

    run = {
        "resolve": cupweb.resolve_full,
        "witness": witness,
        "straighten": cupweb.garnir_straighten,
        "act": cupweb.act_web,
    }
    queries = query_list(args.seed)
    calls = prepare_calls(cupweb, queries)
    results, op_s, failed = [], [], 0
    clock = probe.clock
    window = _Window(probe)
    for kind, call_args in calls:
        t = clock()
        try:
            result = run[kind](*call_args)
        except Exception as exc:  # counted, and the session goes on
            result = repr(exc)
            failed += 1
        op_s.append(clock() - t)
        results.append(result)
    out = window.close()
    rss = peak_rss_mb()
    plain = [
        plain_result(kind, r) if not isinstance(r, str) else r
        for (kind, _), r in zip(queries, results)
    ]
    text = json.dumps(plain)
    out.update(op_s=op_s, peak_rss_mb=rss, failed=failed,
               digest=hashlib.sha256(text.encode()).hexdigest())
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    return out


def main() -> int:
    probe = Probe()
    probe.start(SETUP_INTERVAL_S)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--output", default="")
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Importing the package (and the CLI, for the CLI workloads) is set-up time.
    import cupweb
    if args.workload != "query-mix":
        import cupweb.cli  # noqa: F401
    if not os.path.abspath(cupweb.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported cupweb from {cupweb.__file__}, not this checkout")
    tracer = Tracer(probe.clock) if args.trace else None
    if tracer is not None:
        tracer.install()
    if args.workload == "query-mix":
        from inputs import SESSION_N
        cupweb.enumerate_syt(SESSION_N)
        cupweb.build_tableau_graph(SESSION_N)
    # The parent times set-up from outside, less the probe's own time.
    out = {"setup_probe_s": probe.total, "setup_scale": probe.scale(0)}
    print("ready", flush=True)
    probe.start()
    if not args.setup_only:
        if args.workload == "query-mix":
            out.update(_query_session(args, probe))
        else:
            out.update(_cli_session(args, probe, tracer))
        probe.stop()
        scale = out["scale"]
        out.update(wall_s=out["wall_s"] * scale, op_s=[t * scale for t in out["op_s"]])
        if tracer is not None:
            out["layers"] = tracer.summary(scale)
            if args.trace_file:
                tracer.dump(args.trace_file)
    probe.stop()
    print(json.dumps(out), flush=True)
    # Skip freeing every cached object at exit: that takes seconds after a
    # large session and measures nothing.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
