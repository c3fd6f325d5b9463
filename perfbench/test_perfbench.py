"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import build_cold                                           # noqa: E402
import harness                                              # noqa: E402
import oracle                                               # noqa: E402
import run as bench                                         # noqa: E402
import run_instrumented                                     # noqa: E402
from pipeline import (Cell, base_run, check_instrumented,   # noqa: E402
                      compile_program, instrument, load_and_run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

NO_LAYERS = harness.Layers(enabled=False)


def _flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 1]) + data[index + 1:]


@pytest.fixture(scope="module")
def prof_fib():
    cell = Cell("fib", "prof", "O1", 6)
    base, problems = base_run(cell, NO_LAYERS)
    assert problems == []
    module, _ = instrument(cell, compile_program("fib", NO_LAYERS),
                           NO_LAYERS)
    return cell, base, load_and_run(module, cell.arg, NO_LAYERS)


def test_oracle_matches_every_program_at_its_build_cold_scale():
    for program, arg in build_cold.ARGS.items():
        cell = Cell(program, "", "", arg)
        assert base_run(cell, NO_LAYERS)[1] == [], program


def test_oracle_rejects_one_flipped_stdout_byte(prof_fib):
    cell, base, instr = prof_fib
    assert check_instrumented(cell, base, instr) == []
    for index in (0, len(instr.stdout) // 2, len(instr.stdout) - 1):
        bad = dataclasses.replace(instr, stdout=_flip(instr.stdout, index))
        assert check_instrumented(cell, base, bad), index


def test_oracle_rejects_prof_total_off_by_one(prof_fib):
    cell, base, instr = prof_fib
    report = instr.files["prof.out"]
    total = oracle.reported_total("prof", report)
    assert total == base.inst_count
    for wrong in (total - 1, total + 1):
        files = dict(instr.files)
        files["prof.out"] = report.replace(
            f"total instructions: {total}".encode(),
            f"total instructions: {wrong}".encode())
        bad = dataclasses.replace(instr, files=files)
        assert any("total" in p for p in check_instrumented(cell, base,
                                                            bad))


def test_oracle_rejects_moved_heap_and_stack(prof_fib):
    cell, base, instr = prof_fib
    for field in ("heap_base", "initial_sp"):
        bad = dataclasses.replace(instr, **{field: getattr(instr, field)
                                            + 8})
        assert any(field in p for p in check_instrumented(cell, base, bad))


def test_failed_checks_are_counted(monkeypatch):
    monkeypatch.setattr(harness, "MIN_OPS", 4)
    run = harness.Run(seconds=0.0, layers=NO_LAYERS)
    run.execute(lambda i: [i], lambda item: lambda: ["bad"] if item % 2
                else [])
    assert (run.attempted, run.failed) == (4, 2)
    assert len(run.latencies_ms) == 2


def test_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == bench.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(bench.WORKLOADS)


def _shrink(monkeypatch):
    """Two set-ups and one short round per workload."""
    monkeypatch.setattr(harness, "MIN_OPS", 1)
    monkeypatch.setattr(bench, "SETUPS", 2)
    full = build_cold.round_cells
    monkeypatch.setattr(build_cold, "round_cells",
                        lambda seed, i: full(seed, i)[:2])
    cells = dict(list(run_instrumented.CELLS.items())[::3])
    monkeypatch.setattr(run_instrumented, "CELLS", cells)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_workload_reports_its_metrics(workload, trace, monkeypatch, capsys):
    _shrink(monkeypatch)
    assert bench.main(["--workload", workload, "--seed", "3",
                       "--seconds", "0.01", "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert line["failed"] == 0
    table = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} \
        == {m["name"]: m["unit"] for m in table}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
