"""``run-instrumented``: load and run executables ATOM already built.

Set-up builds five instrumented executables and runs each once, so the
region JIT's code memo is warm for every cell.  Each operation then
decodes one executable, loads it (``machine.Machine``) and runs it
(``Machine.run``): cpu, jit, memory and the loader do all the work, mlc
and atom none (the paper's Figure 6).

Cells come in two classes.  Call-dense cells put a call in every block
of call-heavy programs at O1; loop-dense cells instrument tight loops at
O4, where analysis routines are inlined.  A round runs every cell once
in a seeded order.
"""

from __future__ import annotations

import random

from repro.machine import Machine
from repro.objfile.module import Module

from harness import Run, median_setup, self_peak_rss_mb
from pipeline import (Cell, First, base_run, check_instrumented,
                      compile_program, instrument, load_and_run, note_run,
                      totals)

#: An odd number of cells: with an even one the median latency falls
#: between two cells' samples and jumps with noise.
CELLS = {
    Cell("fib", "prof", "O1", 8): "calls",
    Cell("quick", "gprof", "O1", 20): "calls",
    Cell("li", "inline", "O1", 30): "calls",
    Cell("sieve", "dyninst", "O4", 300): "loops",
    Cell("matrix", "taint", "O4", 2): "loops",
}


class Setup:
    """Instrumented executables (as bytes) with their checked first runs.

    The uninstrumented runs the checks compare against are made once,
    before the set-ups are timed."""

    def __init__(self, base, layers, lap):
        self.blobs = {}
        self.first = {}
        self.problems = []
        for cell in CELLS:
            module, built = instrument(
                cell, compile_program(cell.program, layers), layers)
            self.blobs[cell] = module.to_bytes()
            lap()
            instr = load_and_run(module, cell.arg, layers)
            lap()
            self.first[cell] = First(instr.cycles, instr.inst_count, built)
            self.problems += check_instrumented(cell, base[cell], instr)


def run(seed: int, seconds: float, layers, setups: int) -> dict:
    base, problems = {}, []
    for cell in CELLS:
        base[cell], found = base_run(cell, layers)
        problems += found
    setup, setup_s = median_setup(lambda lap: Setup(base, layers, lap),
                                  setups, layers)
    rng = random.Random(f"run-instrumented:{seed}")
    insts = {"calls": 0, "loops": 0}

    def op(cell: Cell):
        kind = CELLS[cell]
        with layers.time("machine.load_ms"):
            machine = Machine(Module.from_bytes(setup.blobs[cell]),
                              args=(str(cell.arg),))
        with layers.time(f"machine.run_ms.{kind}"):
            instr = machine.run()

        def check():
            insts[kind] += instr.inst_count
            note_run(machine, instr, layers)
            return check_instrumented(cell, base[cell], instr)
        return check

    def rounds(_):
        cells = list(CELLS)
        rng.shuffle(cells)
        return cells

    timed = Run(seconds, layers)
    layers.phase = "timed"
    timed.execute(rounds, op)

    mcycles, layer = totals(setup.first.values())
    for kind in ("calls", "loops"):
        run_ms = layers.total(f"machine.run_ms.{kind}")
        layer[f"machine.minst_per_s.{kind}"] = \
            insts[kind] / run_ms / 1e3 if run_ms else 0.0
    return {
        "problems": problems + setup.problems,
        "run": timed,
        "metrics": {"setup_s": (setup_s, "s"), **timed.end_to_end(),
                    "peak_rss_mb": (self_peak_rss_mb(), "MB"),
                    "guest_mcycles": (mcycles, "Mcycles")},
        "layers": layer,
    }
