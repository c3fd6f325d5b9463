"""``serve-warm``: a ``wrl-serve`` daemon with one worker, one closed-loop
client connection, two tenants.

The daemon runs as its own process (``python -m repro.serve``) on a
private socket and cache directory.  Every tenant's cache holds at most
``CAP`` blobs.  Tenant ``alpha`` asks for one eval cell, whose
instrumented executable fits its quota, so its evals read the cache; it
also sends ``run`` requests carrying an executable the benchmark
instrumented itself.  Tenant ``beta`` cycles through ``CAP + 1`` eval
cells in a fixed order, so under LRU every one of its requests misses,
re-instruments and writes back, evicting the next one it will need.

Set-up starts the daemon and sends each distinct request once.  A round
is seven requests, alpha's four interleaved with beta's three by the
seed; beta's cyclic order is also the seed's.  Each served result is checked against
the Python recomputation and against the same cell computed in this
process before any daemon starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import signal
import subprocess
import sys
import time

from repro.eval.parallel import TaskSpec
from repro.serve.client import ServeClient
from repro.serve.protocol import ServeError

import oracle
from harness import Run, median_setup, proc_peak_rss_mb
from pipeline import (Cell, First, base_run, check_instrumented,
                      compile_program, instrument, load_and_run, totals)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAP = 2
ALPHA_EVAL = Cell("fib", "prof", "O1", 8)
ALPHA_RUN = Cell("sieve", "dyninst", "O4", 300)
BETA_EVALS = (Cell("li", "malloc", "O2", 30), Cell("crc", "pipe", "O3", 40),
              Cell("strings", "syscall", "O0", 200))
#: Record fields that must equal the in-process computation.
SAME = ("base_status", "base_cycles", "base_insts", "instr_status",
        "instr_cycles", "instr_insts", "points", "calls_added",
        "stdout_sha", "files_sha")


def files_sha(files: dict[str, bytes]) -> str:
    """The digest ``TaskResult.files_sha`` states for a run's files."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\x00")
        digest.update(hashlib.sha256(files[name]).digest())
    return digest.hexdigest()


class Reference:
    """Each cell computed in this process, checked against the oracle."""

    def __init__(self, layers):
        self.records = {}
        self.problems = []
        self.first = []
        for cell in BETA_EVALS + (ALPHA_EVAL, ALPHA_RUN):
            base, problems = base_run(cell, layers)
            module, built = instrument(
                cell, compile_program(cell.program, layers), layers)
            instr = load_and_run(module, cell.arg, layers)
            self.problems += problems + check_instrumented(cell, base,
                                                           instr)
            self.first.append(First(instr.cycles, instr.inst_count, built))
            self.records[cell] = {
                "base_status": base.status, "base_cycles": base.cycles,
                "base_insts": base.inst_count,
                "instr_status": instr.status,
                "instr_cycles": instr.cycles,
                "instr_insts": instr.inst_count,
                "points": built.points, "calls_added": built.calls_added,
                "stdout_sha": oracle.sha(instr.stdout),
                "files_sha": files_sha(instr.files),
            }
            if cell == ALPHA_RUN:
                self.run_exe = module.to_bytes()
                self.run_result = instr


class Daemon:
    """One ``wrl-serve`` process with a single worker, warmed up."""

    def __init__(self, workdir: str, index: int, ref: Reference, layers,
                 beta: list, problems: list, lap):
        self.ref = ref
        self.layers = layers
        base = os.path.join(workdir, f"daemon{index}")
        os.makedirs(base)
        # Relative to the checkout, which is every process's cwd: a unix
        # socket path must stay short.
        self.socket = os.path.relpath(os.path.join(base, "sock"), ROOT)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("WRL_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["WRL_CACHE_DIR"] = os.path.join(base, "default-cache")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", self.socket,
             "--jobs", "1", "--tenant-cap", str(CAP),
             "--cache-dir", os.path.join(base, "cache")],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL)
        self.client = ServeClient(self.socket, timeout=120.0)
        try:
            self._wait_ready()
            lap()
            # Beta first, in its cyclic order: its requests compile the
            # analysis units, so alpha's namespace holds only what alpha
            # reads back, and beta's next request is already evicted.
            for request in beta + [("eval", "alpha", ALPHA_EVAL),
                                   ("run", "alpha", ALPHA_RUN)]:
                problems += self.request(request)()
                lap()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"wrl-serve exited with {self.proc.returncode}")
            try:
                self.client.ping()
                return
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)

    def request(self, request):
        """Send one request; return the check to run on its reply."""
        kind, tenant, cell = request
        layers = self.layers
        t0 = time.perf_counter()
        if kind == "eval":
            spec = TaskSpec(tool=cell.tool, workload=cell.program,
                            opt=cell.opt, wl_args=(str(cell.arg),))
            record = self.client.eval_task(spec, tenant=tenant)
        else:
            reply = self.client.run_exe(self.ref.run_exe,
                                        args=(str(cell.arg),),
                                        tenant=tenant)
        roundtrip_ms = (time.perf_counter() - t0) * 1e3

        def check():
            layers.add_ms(f"serve.roundtrip_ms.{kind}", roundtrip_ms)
            if layers.enabled:
                with layers.time("serve.ping_ms"):
                    self.client.ping()
            if kind == "run":
                if reply.jit_stats:
                    for key in ("jit_regions", "jit_denied"):
                        layers.add(f"machine.{key}", reply.jit_stats[key])
                return self._check_run(cell, reply)
            layers.add_ms("eval.task_ms", record["wall_s"] * 1e3)
            layers.add_ms("serve.overhead_ms",
                          roundtrip_ms - record["wall_s"] * 1e3)
            layers.add("eval.instr_compiles", int(record["instr_compiled"]))
            layers.add("eval.cache_hits", int(not record["instr_compiled"]))
            return self._check_eval(cell, record)
        return check

    def _check_eval(self, cell: Cell, record: dict) -> list[str]:
        problems = []
        if record.get("status") != "ok" or not record.get("pristine"):
            problems.append(f"served {cell}: status "
                            f"{record.get('status')!r} "
                            f"{record.get('error', '')}")
        want = oracle.sha(oracle.expected_stdout(cell.program, cell.arg))
        if record.get("stdout_sha") != want:
            problems.append(f"served {cell}: stdout is not the oracle's")
        expected = self.ref.records[cell]
        for key in SAME:
            if record.get(key) != expected[key]:
                problems.append(f"served {cell}: {key} {record.get(key)!r}"
                                f" != in-process {expected[key]!r}")
        return problems

    def _check_run(self, cell: Cell, reply) -> list[str]:
        local = self.ref.run_result
        problems = oracle.check_program_output(
            cell.program, cell.arg, reply.status, reply.stdout,
            reply.files or {})
        if reply.timeout:
            problems.append(f"served run {cell} timed out")
        if (reply.files, reply.cycles, reply.insts) != (
                local.files, local.cycles, local.inst_count):
            problems.append(f"served run {cell}: files, cycles or insts "
                            f"differ from the in-process run")
        return problems

    def worker_pids(self) -> list[int]:
        pids = []
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            with open(f"/proc/{self.proc.pid}/task/{task}/children") as f:
                pids += [int(p) for p in f.read().split()]
        return pids

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus that of its worker."""
        return sum(proc_peak_rss_mb(pid)
                   for pid in [self.proc.pid] + self.worker_pids())

    def close(self) -> None:
        workers = self.worker_pids() if self.proc.poll() is None else []
        try:
            self.client.shutdown()
        except (ServeError, OSError):
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pid in workers:
            _wait_gone(pid)


def _wait_gone(pid: int) -> None:
    """Wait for a process that is not our child to end (kill it after
    ten seconds)."""
    deadline = time.monotonic() + 10
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state == "Z":
            return
        if time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
        time.sleep(0.02)


def schedule(seed: int):
    """Beta's cyclic request order, and the rounds of the timed phase."""
    rng = random.Random(f"serve-warm:{seed}")
    beta = [("eval", "beta", c) for c in BETA_EVALS]
    rng.shuffle(beta)
    # Two of each of alpha's requests: with a round of seven, the median
    # falls inside one request kind's samples, not between two kinds'.
    alpha = [("eval", "alpha", ALPHA_EVAL)] * 2 \
        + [("run", "alpha", ALPHA_RUN)] * 2

    size = len(alpha) + len(beta)

    def one_round(_):
        mine = list(alpha)
        rng.shuffle(mine)
        slots = set(rng.sample(range(size), len(beta)))
        b, a = iter(beta), iter(mine)
        return [next(b) if i in slots else next(a) for i in range(size)]
    return beta, one_round


def run(seed: int, seconds: float, layers, setups: int) -> dict:
    workdir = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
    os.makedirs(workdir)
    daemon = None
    try:
        ref = Reference(layers)
        beta, rounds = schedule(seed)
        count = iter(range(setups))
        problems = ref.problems
        daemon, setup_s = median_setup(
            lambda lap: Daemon(workdir, next(count), ref, layers, beta,
                               problems, lap), setups, layers)
        batches = daemon.client.stats()["batches"]
        timed = Run(seconds, layers)
        layers.phase = "timed"
        timed.execute(rounds, daemon.request)
        batches = daemon.client.stats()["batches"] - batches
        peak = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    mcycles, layer = totals(ref.first)
    return {
        "problems": problems,
        "run": timed,
        "metrics": {"setup_s": (setup_s, "s"), **timed.end_to_end(),
                    "peak_rss_mb": (peak, "MB"),
                    "guest_mcycles": (mcycles, "Mcycles")},
        "layers": {**layer,
                   "eval.instr_compiles": layers.total("eval.instr_compiles"),
                   "eval.cache_hits": layers.total("eval.cache_hits"),
                   "serve.batches": batches},
    }
