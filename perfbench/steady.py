"""How steady is the benchmark?  Runs each workload repeatedly, with a new
seed each time, and prints every end-to-end metric's median, quartiles and
spread (quartile distance over median), set by set, plus the gap between
the first and the last set's medians and the share of failed operations.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads certify-n7 --runs 5 --sets 1

The spread is compared with each metric's ``bound`` in ``BENCHMARK.json``:
``!`` marks a spread or gap over the bound, ``~`` one over a third of it
(``setup_s`` is held to its bound by the gap only).  Raw results go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def _mark(share, bound):
    return "!" if share > bound else "~" if share > bound / 3 else " "


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [[] for _ in range(args.sets)] for w in args.workloads}
    seed = args.first_seed
    for s in range(args.sets):
        for r in range(args.runs):
            for w in args.workloads:  # interleaved, so drift hits every workload
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                took = time.perf_counter() - start
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                result["seed"], result["took_s"] = seed, took
                results[w][s].append(result)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: {took:.1f} s, "
                      f"correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            seed += 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    worst = 0
    for w in args.workloads:
        print(f"\n{w}")
        for metric, bound in bounds.items():
            medians, cells = [], []
            for runs in results[w]:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, q3, share = spread(values)
                medians.append(statistics.median(values))
                held = metric != "setup_s"
                cells.append(f"{medians[-1]:.4g} [{q1:.4g}, {q3:.4g}] "
                             f"{100 * share:4.1f}%{_mark(share, bound) if held else ' '}")
                if held and share > bound:
                    worst = 1
            better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
            change = (medians[-1] - medians[0]) / medians[0]
            worse = change if better == "lower" else -change
            if worse > bound:
                worst = 1
            print(f"  {metric:12s} bound {100 * bound:4.1f}%  " + "  ".join(cells)
                  + (f"  gap {100 * change:+5.1f}%{_mark(max(worse, 0), bound)}"
                     if len(medians) > 1 else ""))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]]
        print(f"  failed share per set: {shares}; all correct: "
              f"{all(r['correct'] for runs in results[w] for r in runs)}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
