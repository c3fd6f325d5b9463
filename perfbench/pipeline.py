"""The paper's pipeline, called only through each layer's public
functions: ``mlc.build_executable``, ``mlc.build_analysis_unit``,
``atom.instrument_executable`` and ``machine.Machine``.

No artifact cache sits on this path; every call does its work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atom import OptLevel, instrument_executable
from repro.machine import Machine, RunResult
from repro.mlc import build_analysis_unit, build_executable
from repro.objfile.sections import TEXT
from repro.tools import get_tool
from repro.workloads import load_source

import oracle


@dataclass(frozen=True)
class Cell:
    """One (program, tool, opt level) combination run at a scale."""

    program: str
    tool: str
    opt: str
    arg: int

    def __str__(self) -> str:
        return f"{self.tool}@{self.opt}:{self.program}({self.arg})"


@dataclass
class Built:
    """Counts ATOM reports for one instrumented executable."""

    points: int
    calls_added: int
    snippet_insts: int
    inlined_calls: int
    text_bytes: int


@dataclass
class First:
    """One instrumented execution of a distinct cell."""

    cycles: int
    insts: int
    built: Built


def totals(firsts) -> tuple[float, dict]:
    """``guest_mcycles`` and the per-layer counts of distinct cells."""
    firsts = list(firsts)
    built = [f.built for f in firsts]
    return sum(f.cycles for f in firsts) / 1e6, {
        "atom.calls_added": sum(b.calls_added for b in built),
        "atom.snippet_insts": sum(b.snippet_insts for b in built),
        "atom.inlined_calls": sum(b.inlined_calls for b in built),
        "atom.text_kb": sum(b.text_bytes for b in built) / 1024,
        "machine.guest_minsts": sum(f.insts for f in firsts) / 1e6,
    }


def compile_program(program: str, layers):
    with layers.time("mlc.build_ms"):
        return build_executable([load_source(program)], name=program)


def instrument(cell: Cell, exe, layers):
    """Compile the tool's analysis unit and instrument ``exe`` with it."""
    tool = get_tool(cell.tool)
    with layers.time("mlc.analysis_ms"):
        unit = build_analysis_unit([tool.analysis_source],
                                   name=f"{cell.tool}-analysis")
    with layers.time("atom.instrument_ms"):
        result = instrument_executable(exe, tool.instrument, unit,
                                       opt=OptLevel[cell.opt])
    stats = result.stats
    built = Built(stats.points, stats.calls_added, stats.snippet_insts,
                  stats.inlined_calls,
                  len(result.module.section(TEXT).data))
    return result.module, built


def load_and_run(module, arg: int, layers) -> RunResult:
    with layers.time("machine.load_ms"):
        machine = Machine(module, args=(str(arg),))
    result = machine.run()
    note_run(machine, result, layers)
    return result


def note_run(machine: Machine, result: RunResult, layers) -> None:
    """Record the run's JIT counts, and how many of its superblock and
    JIT-region builds the process-wide code caches served."""
    jit = result.jit_stats or {}
    layers.add("machine.jit_regions", jit.get("jit_regions", 0))
    layers.add("machine.jit_denied", jit.get("jit_denied", 0))
    layers.add("machine.sb_builds", machine.cpu.sb_compiled)
    layers.add("machine.sb_cache_hits", machine.cpu.sb_cache_hits)
    layers.add("machine.jit_builds", jit.get("jit_compiled", 0)
               + jit.get("jit_cache_hits", 0))
    layers.add("machine.jit_cache_hits", jit.get("jit_cache_hits", 0))


def base_run(cell: Cell, layers) -> tuple[RunResult, list[str]]:
    """The uninstrumented run of the cell's program, checked against the
    Python recomputation."""
    result = load_and_run(compile_program(cell.program, layers), cell.arg,
                          layers)
    problems = oracle.check_program_output(
        cell.program, cell.arg, result.status, result.stdout, result.files)
    return result, problems


def check_instrumented(cell: Cell, base: RunResult,
                       instr: RunResult) -> list[str]:
    """Oracle output plus ATOM's guarantees against the base run."""
    tool = get_tool(cell.tool)
    return (oracle.check_program_output(cell.program, cell.arg,
                                        instr.status, instr.stdout,
                                        instr.files)
            + oracle.check_instrumented(cell.tool, tool.output_file,
                                        base, instr))
