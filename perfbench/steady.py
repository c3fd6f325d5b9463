"""Run one workload N times, each with another seed, and print each
metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload serve-warm --runs 10

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
workload is steady when every end-to-end spread is below a third of the
metric's bound in BENCHMARK.json; the last line says so.  The wall time
of each run, set-up included, is printed too.  ``--trace 1`` runs the
traced mode and prints the per-layer metrics (they have no bound).
``--out`` keeps every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from harness import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, median, q3 = quartiles(values)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench-steady")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every result line here")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.monotonic()
        result = run_once(args.workload, seed, bench["run_seconds"],
                          args.trace)
        results.append({"seed": seed,
                        "wall_s": time.monotonic() - t0, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, failed share "
          f"{sorted(shares)}, all correct: {steady}")
    walls = [r["wall_s"] for r in results]
    print(f"wall time per run: {min(walls):.1f}-{max(walls):.1f} s "
          f"(median {statistics.median(walls):.1f} s)")
    print(f"{'metric':28s} {'unit':8s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3, share = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = f"{bound:6.2f}"
            if share >= bound / 3:
                mark += "  too wide"
                steady = False
        print(f"{name:28s} {entry['unit']:8s} {q1:12.4f} {median:12.4f} "
              f"{q3:12.4f} {share:7.3f} {mark}")
    if len(shares) != 1:
        steady = False
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
