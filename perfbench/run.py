"""cupweb's benchmark: one workload, measured for a fixed time, then checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-n7 --seed 1 --seconds 36 --trace 0

Each session is a fresh single-threaded interpreter running ``worker.py``:
it imports cupweb from ``src`` and does one cold unit of the workload.
Sessions run one after another, and another one starts only while it can
still end within ``--seconds``.  Every metric is the median over sessions.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced sessions and prints the per-layer metrics of the
traced ones, with the tracing overhead.  Outputs are checked after the
measuring ends, against ``oracle.py``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
import oracle
from inputs import query_list
from tracing import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify-n7", "matrix-n8", "query-mix")
SETUP_SAMPLES = 11  # set-up is timed this often per run, sessions included
RUN_LIMIT_S = 170  # a run never lasts longer than this
MATRIX_SAMPLE_COLUMNS = 128


class Session:
    """One worker process: its set-up time and the JSON it printed."""

    def __init__(self, workload, seed, traced=False, output="", trace_file="",
                 setup_only=False, timeout=RUN_LIMIT_S):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--output", output,
               "--trace-file", trace_file]
        if setup_only:
            cmd.append("--setup-only")
        self.traced = traced
        self.text = None  # the output file's contents, read by ``measure``
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "CUPWEB_OUTPUT_DIR")}
        # Fixed hashing, and no bytecode written into the checkout, so that
        # set-up time does not depend on what an earlier run left behind.
        env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        # Unbuffered, so reading the ready line takes nothing more off the pipe.
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, bufsize=0,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            ready_line = proc.stdout.readline()
            self.raw_setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\nsession killed after {timeout:.0f} s".encode()
        out, self.stderr = out.decode(), err.decode(errors="replace")
        self.elapsed = time.perf_counter() - start
        self.ok = proc.returncode == 0 and ready_line.strip() == b"ready"
        lines = out.strip().splitlines()
        self.result = json.loads(lines[-1]) if self.ok and lines else None
        if self.result is None:
            self.ok = False
        else:  # in reference seconds, like every time the session reports
            self.setup_s = ((self.raw_setup_s - self.result["setup_probe_s"])
                            * self.result["setup_scale"])


def _median(values):
    return statistics.median(values) if values else 0.0


def _p99(values):
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def _output_path(workload):
    ext = "csv" if workload == "matrix-n8" else "json"
    return os.path.join(OUT, f"{workload}-output.{ext}")


def measure(args):
    """Run sessions for ``args.seconds``, keeping each one's output text."""
    sessions = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        k = len(sessions)
        traced = bool(args.trace) and k % 2 == 0
        # Only the first query-mix session writes its results; later ones
        # must give the same digest.
        output = "" if args.workload == "query-mix" and k else _output_path(args.workload)
        trace_file = os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}-{k}.json") if traced else ""
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        session = Session(args.workload, args.seed, traced, output, trace_file,
                          timeout=max(remaining, 1))
        if output and os.path.exists(output):
            with open(output) as fh:
                session.text = fh.read()
            os.remove(output)
        sessions.append(session)
        longest = max(longest, session.elapsed)
        elapsed = time.perf_counter() - start
        if not session.ok or elapsed + longest > RUN_LIMIT_S:
            break
        if args.trace and len(sessions) < 2:
            continue
        if elapsed + longest > args.seconds:
            break
    return sessions


def check(args, sessions):
    """Count attempted and failed operations; list every wrong output."""
    problems, failed, attempted = [], 0, 0
    for s in sessions:
        if not s.ok:
            print(f"session failed: {s.stderr.strip()[-500:]}", file=sys.stderr)
            attempted += 1
            failed += 1
            continue
        r = s.result
        attempted += len(r["op_s"])
        failed += r["failed"]
        if r.get("error"):
            print(f"cupweb raised: {r['error']}", file=sys.stderr)
        if r.get("exit") == 2:
            failed += 1
        elif r.get("exit") not in (0, None):
            problems.append(f"cupweb exited {r['exit']}: {s.stderr.strip()[-300:]}")
        elif r.get("exit") == 0 and s.text is None:
            problems.append("cupweb exited 0 but wrote no output")
    texts = [s.text for s in sessions if s.text is not None]
    if args.workload == "certify-n7":
        for text in texts:
            problems += checks.check_report(text, 7)
        selftest = Session("selftest", args.seed, output=_output_path("selftest"))
        if not selftest.ok or selftest.result["exit"] != 1:
            problems.append("verify --self-test did not exit 1")
    elif args.workload == "matrix-n8":
        if len(set(texts)) > 1:
            problems.append("sessions wrote different matrices")
        if texts:
            problems += checks.check_matrix_csv(
                texts[0], oracle.TableauOrder(8), args.seed, MATRIX_SAMPLE_COLUMNS)
    else:
        if len({s.result["digest"] for s in sessions if s.ok}) > 1:
            problems.append("sessions gave different query results")
        if texts:
            problems += checks.check_queries(query_list(args.seed), json.loads(texts[0]))
        elif sessions[0].ok:
            problems.append("the first session wrote no results")
    return attempted, failed, problems


def end_to_end(args, sessions):
    ran = [s.result for s in sessions if s.ok]
    setups = [s for s in sessions if s.ok]
    while len(setups) < SETUP_SAMPLES:
        extra = Session(args.workload, args.seed, setup_only=True)
        if not extra.ok:
            break
        setups.append(extra)
    raw = {
        "wall_s": _median([r["raw_wall_s"] for r in ran]),
        "setup_s": _median([s.raw_setup_s for s in setups]),
        "scale": _median([r["scale"] for r in ran]),
    }
    print(f"measured seconds, before scaling: {json.dumps(raw)}", file=sys.stderr)
    setups = [s.setup_s for s in setups]
    return raw, {
        "wall_s": (_median([r["wall_s"] for r in ran]), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ran]), "MB"),
        "ops_per_s": (_median([len(r["op_s"]) / r["wall_s"] for r in ran]), "1/s"),
        "op_p50_ms": (_median([1000 * statistics.median(r["op_s"]) for r in ran]), "ms"),
        "op_p99_ms": (_median([1000 * _p99(r["op_s"]) for r in ran]), "ms"),
    }


def per_layer(sessions):
    traced = [s.result for s in sessions if s.ok and s.traced]
    plain = [s.result for s in sessions if s.ok and not s.traced]
    names = traced[0]["layers"] if traced else {}
    metrics = {}
    for name in names:
        unit = UNITS.get(name, "s")
        values = [r["layers"][name] for r in traced]
        # A count is the same in every traced session; keep it whole.
        metrics[name] = (statistics.median_low(values) if unit == "count"
                         else _median(values), unit)
    metrics["cli.output_bytes"] = (
        _median([r.get("output_bytes", 0) for r in traced]), "bytes")
    traced_wall = _median([r["wall_s"] for r in traced])
    plain_wall = _median([r["wall_s"] for r in plain])
    overhead = 100 * (traced_wall / plain_wall - 1) if plain_wall else 0.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cupweb", "__init__.py")):
        print(f"error: no cupweb sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sessions = measure(args)
    attempted, failed, problems = check(args, sessions)
    raw, metrics = ({}, per_layer(sessions)) if args.trace else end_to_end(args, sessions)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(
            OUT, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(dict(result, raw=raw), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
