"""``build-cold``: compile, instrument, load and run, with no cache.

Each operation compiles a program from source, compiles a tool's
analysis unit, instruments the program with it, loads the result and
runs it at a small scale argument: the paper's Figure 5 path, where mlc,
om and atom do most of the work.

A round is 40 distinct cells: every program twice, every tool three or
four times, every opt level eight times.  The cells of a round
are fixed; the seed orders them.  A later round (a run does one unless
a round takes less than ``--seconds``) has cells of its own, so no cell
repeats within a run and no artifact of one is reused.  The machine's
process-wide code caches (``cpu._SB_CACHE``, ``jit._JIT_CACHE``) are
left as they are: the traced run reports the share of superblock and
JIT-region builds they serve (``machine.sb_cache_pct``,
``machine.jit_cache_pct``).
"""

from __future__ import annotations

import random

from repro.atom import OptLevel
from repro.tools import TOOL_NAMES

import oracle
from harness import Run, median_setup, self_peak_rss_mb
from pipeline import (Cell, First, base_run, check_instrumented,
                      compile_program, instrument, load_and_run, totals)

#: Scale arguments small enough that the guest run is short.
ARGS = {"compress": 20, "eqntott": 1, "espresso": 2, "li": 3, "sc": 0,
        "cc1": 1, "quick": 8, "merge": 8, "matrix": 2, "sieve": 30,
        "hashtab": 8, "bfs": 5, "nqueens": 4, "crc": 16, "strings": 16,
        "life": 0, "churn": 10, "fileio": 2, "fib": 5, "bitops": 4}

#: Operations per round: every program twice, every tool three or four
#: times, every opt level eight times.
ROUND = 2 * len(oracle.PROGRAM_NAMES)
OPTS = tuple(level.name for level in OptLevel)


def design(index: int) -> list[Cell]:
    """The distinct cells of round ``index``, the same for every seed: a
    seed that chose cells would change the work measured."""
    rng = random.Random(f"build-cold:design:{index}")
    while True:
        tools = [TOOL_NAMES[i % len(TOOL_NAMES)] for i in range(ROUND)]
        programs = [oracle.PROGRAM_NAMES[i % len(oracle.PROGRAM_NAMES)]
                    for i in range(ROUND)]
        opts = [OPTS[i % len(OPTS)] for i in range(ROUND)]
        for column in (tools, programs, opts):
            rng.shuffle(column)
        cells = [Cell(p, t, o, ARGS[p])
                 for p, t, o in zip(programs, tools, opts)]
        if len(set(cells)) == ROUND:
            return cells


def round_cells(seed: int, index: int) -> list[Cell]:
    """Round ``index`` of the run: its design in the seed's order."""
    cells = design(index)
    random.Random(f"build-cold:{seed}:{index}").shuffle(cells)
    return cells


class Setup:
    """Uninstrumented expectations for every program: compiled and run
    once, and checked against the Python recomputation."""

    def __init__(self, layers, lap):
        self.base = {}
        self.problems = []
        for program in oracle.PROGRAM_NAMES:
            cell = Cell(program, "", "", ARGS[program])
            self.base[program], problems = base_run(cell, layers)
            self.problems += problems
            lap()


def run(seed: int, seconds: float, layers, setups: int) -> dict:
    setup, setup_s = median_setup(lambda lap: Setup(layers, lap), setups,
                                   layers)
    round0 = set(design(0))
    first = {}

    def op(cell: Cell):
        exe = compile_program(cell.program, layers)
        module, built = instrument(cell, exe, layers)
        instr = load_and_run(module, cell.arg, layers)

        def check():
            if cell in round0:
                first[cell] = First(instr.cycles, instr.inst_count, built)
            return check_instrumented(cell, setup.base[cell.program], instr)
        return check

    timed = Run(seconds, layers)
    layers.phase = "timed"
    timed.execute(lambda i: round_cells(seed, i), op)
    mcycles, counts = totals(first.values())
    return {
        "problems": setup.problems,
        "run": timed,
        "metrics": {"setup_s": (setup_s, "s"), **timed.end_to_end(),
                    "peak_rss_mb": (self_peak_rss_mb(), "MB"),
                    "guest_mcycles": (mcycles, "Mcycles")},
        "layers": counts,
    }
