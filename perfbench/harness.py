"""What the three workloads share: layer timers, percentiles, memory
readings, the run loop and the result line.

Untraced runs time whole operations only.  Traced runs also time every
call into a layer's public function (``Layers.time``), and may wrap the
two OM entry points that ATOM calls internally (``om_shims``); nothing is
added inside ``src/``.

Every time reported is scaled to a reference host speed.  The speed of
the machine this was written on drifts by up to 2x over tens of seconds
(README.md, "Noise controls"), which no amount of work inside one run
averages out.  So the benchmark times a fixed pure-Python kernel between
operations and scales each operation by ``KERNEL_REF_S`` over the
kernel's time around it: a time is reported as it would read on a host
where the kernel takes exactly ``KERNEL_REF_S``.  The kernel runs outside
every timed interval and touches nothing of the program.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

#: A percentile above the median is reported only over at least this many
#: operations, so that ten samples lie beyond the 75th percentile.
MIN_OPS = 40

#: The calibration kernel's time at the reference host speed.
KERNEL_REF_S = 1e-3


def _kernel() -> int:
    table: dict[int, int] = {}
    out = []
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i * 3
        out.append((i ^ 0x55) >> 1)
    return len(out) + len(table)


def host_sample() -> float:
    """Seconds the calibration kernel takes now: the best of two runs,
    with the collector off so the caller's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best
    finally:
        if enabled:
            gc.enable()


class _Timer:
    __slots__ = ("layers", "name", "t0")

    def __init__(self, layers, name):
        self.layers = layers
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.layers.add_ms(self.name,
                           (time.perf_counter() - self.t0) * 1e3)
        return False


class Layers:
    """Per-layer samples of a traced run; a no-op when tracing is off.

    Samples go to the current phase ("setup" or "timed").  A layer the
    timed phase calls is reported from the timed phase; a layer only the
    set-up calls (the builds of ``run-instrumented``, the in-process
    reference runs of ``serve-warm``) is reported from the set-up.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = "setup"
        #: Host speed scale for the work under way (see ``host_sample``).
        self.scale = KERNEL_REF_S / host_sample() if enabled else 1.0
        self._samples = {"setup": defaultdict(list),
                         "timed": defaultdict(list)}

    def time(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return _Timer(self, name)

    def add(self, name: str, value: float) -> None:
        """Record a count or another value that is not a time."""
        if self.enabled:
            self._samples[self.phase][name].append(value)

    def add_ms(self, name: str, ms: float) -> None:
        """Record a time, scaled to the reference host speed."""
        self.add(name, ms * self.scale)

    def samples(self, name: str) -> list[float]:
        return self._samples["timed"].get(name) \
            or self._samples["setup"].get(name) or []

    def median(self, name: str) -> float:
        values = self.samples(name)
        return statistics.median(values) if values else 0.0

    def total(self, name: str) -> float:
        return float(sum(self.samples(name)))


@contextlib.contextmanager
def om_shims(layers: Layers):
    """Time ``om.build_ir`` and ``om.emit`` as ATOM calls them.

    Both are reached only through ``atom.instrument_executable``, which
    imported them by name; the traced run swaps those names for timing
    wrappers and restores them afterwards.  Untraced runs never enter
    this context.
    """
    from repro.atom import instrument as atom_instrument

    originals = {"build_ir": atom_instrument.build_ir,
                 "emit": atom_instrument.emit}

    def timed(fn, name):
        def wrapper(*args, **kwargs):
            with layers.time(name):
                return fn(*args, **kwargs)
        return wrapper

    atom_instrument.build_ir = timed(originals["build_ir"],
                                     "om.build_ir_ms")
    atom_instrument.emit = timed(originals["emit"], "om.emit_ms")
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(atom_instrument, name, fn)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Clock:
    """Elapsed time at the reference host speed, measured in laps.

    Each lap is scaled by the mean of the kernel's times at its two
    ends, as an operation is; the kernel runs between laps, outside the
    time.  A set-up of several seconds calls ``lap`` between its steps,
    so that a change of host speed within it is followed step by step.
    """

    def __init__(self, layers: Layers):
        self.layers = layers
        self.raw = self.scaled = 0.0
        self._kernel = host_sample()
        layers.scale = KERNEL_REF_S / self._kernel
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._t0
        kernel = host_sample()
        self.raw += elapsed
        self.scaled += elapsed * KERNEL_REF_S / ((self._kernel + kernel) / 2)
        self._kernel = kernel
        self.layers.scale = KERNEL_REF_S / kernel
        self._t0 = time.perf_counter()


def median_setup(setup, repeats: int, layers: Layers):
    """Run ``setup(lap)`` ``repeats`` times; keep the last state.

    ``setup`` calls ``lap()`` between its steps (see ``Clock``) and
    returns a state object; each earlier state is released
    (``state.close()`` when it has one) before the next set-up starts.
    Returns (state, median seconds at the reference host speed).
    """
    times, raw = [], []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None
        clock = Clock(layers)
        state = setup(clock.lap)
        clock.lap()
        raw.append(clock.raw)
        times.append(clock.scaled)
    report("set-ups took " + ", ".join(f"{t:.2f}" for t in raw)
           + " s (scaled: " + ", ".join(f"{t:.2f}" for t in times) + ")")
    return state, statistics.median(times)


class Run:
    """The timed phase: whole rounds of operations until both ``seconds``
    have passed and at least ``MIN_OPS`` operations were attempted.
    The rounds of one workload do comparable work: the same cells, or
    for build-cold cells of the same make-up.

    ``op(item)`` performs one operation and returns a list of problems
    found by the checks (empty: passed).  Its latency is measured around
    the operation only; checks run after the clock stops, through the
    ``check`` callable the operation returns alongside.
    """

    def __init__(self, seconds: float, layers: Layers):
        self.seconds = seconds
        self.layers = layers
        #: Operation latencies at the reference host speed, and as read.
        self.latencies_ms: list[float] = []
        self.raw_ms: list[float] = []
        #: Calibration kernel times sampled between operations.
        self.kernel_s: list[float] = []
        #: Operations passing their checks per second, one per round.
        self.round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0

    def execute(self, rounds, op) -> None:
        """``rounds(i)`` gives the items of round ``i``."""
        gc.collect()
        t_start = time.perf_counter()
        self.kernel_s.append(host_sample())
        i = 0
        while True:
            busy_s, done = 0.0, 0
            for item in rounds(i):
                self.attempted += 1
                self.layers.scale = KERNEL_REF_S / self.kernel_s[-1]
                t0 = time.perf_counter()
                try:
                    check = op(item)
                    latency = time.perf_counter() - t0
                    problems = check()
                except Exception:                      # noqa: BLE001
                    latency = time.perf_counter() - t0
                    problems = [traceback.format_exc()]
                spent = time.perf_counter() - t0
                # Drop the operation's executable and results before the
                # next one starts: a live heap slows the loader.
                check = None
                self.kernel_s.append(host_sample())
                scale = KERNEL_REF_S / (sum(self.kernel_s[-2:]) / 2)
                busy_s += spent * scale
                if problems:
                    self.failed += 1
                    report(f"operation {item!r} failed: "
                           + "; ".join(problems))
                else:
                    self.latencies_ms.append(latency * 1e3 * scale)
                    self.raw_ms.append(latency * 1e3)
                    done += 1
            self.round_rates.append(done / busy_s)
            i += 1
            elapsed = time.perf_counter() - t_start
            if elapsed >= self.seconds and self.attempted >= MIN_OPS:
                break
        report(f"timed phase: {self.attempted} operations in "
               f"{time.perf_counter() - t_start:.2f} s; op p50 "
               f"{statistics.median(self.raw_ms or [0]):.1f} ms as read, "
               f"{statistics.median(self.latencies_ms or [0]):.1f} ms "
               f"scaled; kernel {min(self.kernel_s) * 1e3:.3f}-"
               f"{max(self.kernel_s) * 1e3:.3f} ms")

    def end_to_end(self) -> dict:
        """ops_per_s, op_p50_ms and op_p75_ms of the timed phase.

        A round's rate counts its operations and checks, at the
        reference host speed, and leaves the calibration kernel out.
        Rounds do comparable work, so the median of the rounds' rates is
        the phase's throughput with a burst of host slowness in a
        minority of rounds left out."""
        _, p50, p75 = quartiles(self.latencies_ms)
        return {"ops_per_s": (statistics.median(self.round_rates), "1/s"),
                "op_p50_ms": (p50, "ms"),
                "op_p75_ms": (p75, "ms")}


def report(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def result_line(correct: bool, run: Run, metrics: dict) -> str:
    """The benchmark's last stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
