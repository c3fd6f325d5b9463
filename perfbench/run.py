"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import statistics
import sys

from harness import Layers, om_shims, report, result_line

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {"build-cold": "build_cold",
             "run-instrumented": "run_instrumented",
             "serve-warm": "serve_warm"}

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p75_ms": "ms", "peak_rss_mb": "MB",
              "guest_mcycles": "Mcycles"}

PER_LAYER = {
    "mlc.build_ms": "ms", "mlc.analysis_ms": "ms",
    "om.build_ir_ms": "ms", "om.emit_ms": "ms",
    "atom.instrument_ms": "ms", "atom.calls_added": "count",
    "atom.snippet_insts": "count", "atom.inlined_calls": "count",
    "atom.text_kb": "KiB",
    "machine.load_ms": "ms",
    "machine.run_ms.calls": "ms", "machine.run_ms.loops": "ms",
    "machine.minst_per_s.calls": "Minst/s",
    "machine.minst_per_s.loops": "Minst/s",
    "machine.guest_minsts": "Minst",
    "machine.jit_regions": "count", "machine.jit_denied": "count",
    "machine.sb_cache_pct": "%", "machine.jit_cache_pct": "%",
    "eval.task_ms": "ms", "eval.instr_compiles": "count",
    "eval.cache_hits": "count",
    "serve.roundtrip_ms.eval": "ms", "serve.roundtrip_ms.run": "ms",
    "serve.overhead_ms": "ms", "serve.ping_ms": "ms",
    "serve.batches": "count",
    "trace.op_p50_ms": "ms",
    "host.kernel_ms": "ms",
}

#: Set-ups per run; setup_s is their median.
SETUPS = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    layers = Layers(enabled=bool(args.trace))
    shims = om_shims(layers) if layers.enabled else contextlib.nullcontext()
    with shims:
        out = workload.run(args.seed, args.seconds, layers, SETUPS)
    for problem in out["problems"]:
        report(f"set-up check failed: {problem}")

    timed = out["run"]
    if args.trace:
        known = dict(out["layers"])
        known["trace.op_p50_ms"] = statistics.median(timed.latencies_ms) \
            if timed.latencies_ms else 0.0
        known["host.kernel_ms"] = statistics.median(timed.kernel_s) * 1e3
        for cache in ("sb", "jit"):
            builds = layers.total(f"machine.{cache}_builds")
            known[f"machine.{cache}_cache_pct"] = 100 * layers.total(
                f"machine.{cache}_cache_hits") / builds if builds else 0.0
        metrics = {name: (known[name] if name in known
                          else layers.median(name), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = out["metrics"]
    print(result_line(not out["problems"], timed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
