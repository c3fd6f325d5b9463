"""Output oracle made apart from the program under test.

Two halves:

* ``expected_stdout(program, arg)`` recomputes, in plain Python, what each
  of the twenty workload programs prints for one scale argument.  Nothing
  here calls into ``repro``: the recomputation follows each program's C
  semantics (64-bit wrap-around, truncating division, the runtime's LCG
  ``rand``) directly.
* ``check_*`` functions test the properties ATOM's method guarantees:
  the instrumented run prints and exits exactly like the uninstrumented
  one, keeps the pristine heap and stack addresses, and the counting
  tools report exactly the uninstrumented instruction count.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import re
import struct
import zlib

M64 = (1 << 64) - 1


class Rand:
    """The runtime library's LCG (``srand``/``rand`` in libc.mlc)."""

    def __init__(self, seed: int | None = None):
        self.state = 88172645463325252
        if seed is not None:
            self.seed(seed)

    def seed(self, seed: int) -> None:
        self.state = (seed * 2862933555777941757 + 3037000493) & M64
        if not self.state:
            self.state = 1

    def __call__(self) -> int:
        self.state = (self.state * 6364136223846793005
                      + 1442695040888963407) & M64
        return (self.state >> 33) & 0x3FFFFFFF


def _cdiv(a: int, b: int) -> int:
    """C integer division: truncates toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _popcount(v: int) -> int:
    return bin(v).count("1")


def _compress(n):
    n = min(n, 16384)
    rnd = Rand(12345)
    src = []
    for i in range(n):
        if (rnd() & 7) < 5:
            src.append(ord("a") + (i // 97) % 4)
        else:
            src.append(ord("a") + (rnd() & 15))
    dst = []
    i = 0
    while i < n:
        c = src[i]
        run = 1
        while i + run < n and src[i + run] == c and run < 127:
            run += 1
        if run >= 3:
            dst += [0xFF, run, c]
            i += run
        else:
            dst.append(c)
            i += 1
    check = 0
    for b in dst:
        check = (check * 31 + b) & 0xFFFFFF
    return f"compress: {n} -> {len(dst)} bytes, check={check:x}\n"


def _eqntott(n):
    rnd = Rand(7)
    ta, tb = [], []
    for _ in range(64):
        ta.append(((rnd() << 32) ^ rnd()) & M64)
        tb.append(((rnd() << 32) ^ rnd()) & M64)
    ones = check = 0
    for i in range(n):
        acc = 0
        for j in range(64):
            v = (ta[j] & tb[(i + j) & 63]) ^ (ta[(i * 3 + j) & 63] >> (j & 31))
            acc ^= v
            ones += v & 1
        check = (check * 1099511628211 + acc) & M64
    return f"eqntott: ones={ones} check={check & 0xFFFFFFF:x}\n"


def _espresso(n):
    n = min(n, 256)
    rnd = Rand(99)
    cubes = [((rnd() << 32) ^ rnd()) & M64 for _ in range(n)]
    universe = 0
    for c in cubes:
        universe |= c
    covered = picked = 0
    while covered != universe:
        best, best_gain = -1, 0
        for i, c in enumerate(cubes):
            gain = _popcount(c & ~covered & M64)
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            break
        covered |= cubes[best]
        picked += 1
    residue = _popcount(universe & ~covered & M64)
    return f"espresso: picked {picked} of {n}, residue={residue}\n"


def _li(n):
    values = [i * 3 % 17 for i in range(n)]
    total = sum(values)
    odd = sum(v for v in values if v & 1)
    return f"li: check={total + 2 * total + 3 * odd}\n"


def _sc(iters):
    rows = cols = 24
    grid = [[(r * 31 + c * 17) % 100 for c in range(cols)]
            for r in range(rows)]
    for it in range(iters):
        for r in range(1, rows):
            for c in range(1, cols):
                v = grid[r - 1][c] + grid[r][c - 1]
                if v > 1000:
                    v = v % 1000 + it
                grid[r][c] = v
    check = 0
    for r in range(rows):
        check = (check + grid[r][cols - 1]) & 0xFFFFFF
    return f"sc: check={check}\n"


def _eval_expr(text: str) -> int:
    """Evaluate cc1's expression grammar with C precedence."""
    pos = 0

    def number():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        return int(text[start:pos] or "0")

    def factor():
        nonlocal pos
        if text[pos:pos + 1] == "(":
            pos += 1
            v = expr()
            pos += 1
            return v
        return number()

    def term():
        nonlocal pos
        v = factor()
        while text[pos:pos + 1] in ("*", "/"):
            op = text[pos]
            pos += 1
            r = factor()
            v = v * r if op == "*" else (_cdiv(v, r) if r else 0)
        return v

    def expr():
        nonlocal pos
        v = term()
        while text[pos:pos + 1] in ("+", "-"):
            op = text[pos]
            pos += 1
            r = term()
            v = v + r if op == "+" else v - r
        return v

    return expr()


def _cc1(n):
    rnd = Rand(3)
    check = 0
    for _ in range(n):
        parts = []
        terms = 2 + rnd() % 5
        for t in range(terms):
            if t:
                parts.append("+-*/"[rnd() & 3])
            if (rnd() & 3) == 0:
                a = rnd() % 90 + 1
                op = "+-"[rnd() & 1]
                b = rnd() % 90 + 1
                parts.append(f"({a}{op}{b})")
            else:
                parts.append(str(rnd() % 900 + 1))
        check = (check * 33 + _eval_expr("".join(parts))) & 0xFFFFFFF
    return f"cc1: check={check:x}\n"


def _quick(n):
    n = min(n, 4096)
    rnd = Rand(42)
    data = sorted(rnd() % 100000 for _ in range(n))
    check = 0
    for v in data[::7]:
        check = (check * 31 + v) & 0xFFFFFF
    return f"quick: sorted {n}, check={check:x}\n"


def _merge(n):
    n = min(n, 4096)
    rnd = Rand(1234)
    data = sorted(rnd() % 65536 for _ in range(n))
    check = 0
    for v in data[::5]:
        check = (check * 33 + v) & 0xFFFFFF
    return f"merge: sorted {n}, check={check:x}\n"


def _matrix(n):
    n = min(n, 40)
    a = [[(i * 7 + j * 3) % 11 for j in range(n)] for i in range(n)]
    b = [[(i * 5 + j * 13) % 17 for j in range(n)] for i in range(n)]
    check = 0
    for i in range(n):
        diag = sum(a[i][k] * b[k][i] for k in range(n))
        check = (check + diag * (i + 1)) & 0xFFFFFF
    return f"matrix: n={n} check={check:x}\n"


def _sieve(n):
    n = min(n, 60000)
    primes = [p for p in range(2, n)
              if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    last = primes[-1] if primes else 0
    return f"sieve: {len(primes)} primes below {n}, last={last}\n"


def _hashtab(n):
    rnd = Rand(777)
    table = {}
    for i in range(n):
        table[rnd() % 2048] = i
    rnd.seed(777)
    check = 0
    for _ in range(n):
        v = table.get(rnd() % 2048, -1)
        if v >= 0:
            check = (check + v) & 0xFFFFFF
    check = (check + table.get(999999, -1) + 1) & 0xFFFFFF
    return f"hashtab: check={check:x}\n"


def _bfs(n):
    n = min(n, 600)
    rnd = Rand(31)
    adj = [[] for _ in range(n)]
    for i in range(1, n):
        adj[rnd() % i].append(i)
        a = rnd() % n
        b = rnd() % n
        adj[a].append(b)
    dist = [-1] * n
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    reached = [d for d in dist if d >= 0]
    return f"bfs: reached={len(reached)} sum={sum(reached)}\n"


def _nqueens(n):
    n = min(n, 10)

    def place(row, cols, d1, d2):
        if row == n:
            return 1
        total = 0
        for c in range(n):
            if c in cols or row + c in d1 or row - c in d2:
                continue
            total += place(row + 1, cols | {c}, d1 | {row + c},
                           d2 | {row - c})
        return total

    return f"nqueens: n={n} solutions={place(0, set(), set(), set())}\n"


def _crc(n):
    n = min(n, 8192)
    buf = bytes((i * 131 + 7) & 0xFF for i in range(n))
    crc = zlib.crc32(buf) ^ zlib.crc32(buf[1:])
    return f"crc: {crc & 0xFFFFFFFF:x}\n"


def _strings(n):
    n = min(n, 8192)
    text = "".join("abc"[(i // 7) % 3] if i % 11 == 0 else "abcabca"[i % 7]
                   for i in range(n))
    hits = sum(1 for i in range(n - 3) if text[i:i + 4] == "abca")
    return f"strings: hits={hits}\n"


def _life(gens):
    size = 20
    rnd = Rand(2026)
    grid = [[rnd() & 1 for _ in range(size)] for _ in range(size)]
    for _ in range(gens):
        new = [[0] * size for _ in range(size)]
        for r in range(size):
            for c in range(size):
                nb = sum(grid[(r + dr) % size][(c + dc) % size]
                         for dr in (-1, 0, 1) for dc in (-1, 0, 1)
                         if dr or dc)
                new[r][c] = int(nb in (2, 3)) if grid[r][c] else int(nb == 3)
        grid = new
    alive = sum(map(sum, grid))
    return f"life: alive={alive} after {gens} gens\n"


def _churn(n):
    rnd = Rand(555)
    slots: dict[int, int] = {}
    live = peak = check = 0
    for i in range(n):
        s = rnd() & 255
        if s in slots:
            check = (check + slots.pop(s)) & 0xFFFFFF
            live -= 1
        else:
            rnd()                       # the allocation size
            slots[s] = i
            live += 1
            peak = max(peak, live)
    return f"churn: {n} ops, peak={peak} live={live} check={check:x}\n"


def _fileio(n):
    return f"fileio: {n} records, 0 bad\n"


def fileio_records(n: int) -> bytes:
    """The exact bytes fileio writes to ``records.dat``."""
    out = bytearray()
    for i in range(n):
        a, b, c = i, i * i, i * 3 + 1
        out += struct.pack("<4q", a, b, c, a ^ b ^ c)
    return bytes(out)


def _fib(n):
    n = min(n, 25)
    seq = [0, 1]
    while len(seq) <= 60:
        seq.append(seq[-1] + seq[-2])
    big = seq[n + 30 if 60 > n + 30 else 60]
    return f"fib: fib({n})={seq[n]} big={big}\n"


def _bitops(n):
    pops = check = 0
    for i in range(n):
        v = (i * 0x9E3779B97F4A7C15) & M64
        g = v ^ (v >> 1)
        pops += _popcount(g)
        if i % 3 == 0:
            check ^= int(f"{g:064b}"[::-1], 2)
        check = (check * 31 + _popcount(v & 0xFFFF)) & M64
    return f"bitops: pops={pops} check={check & 0xFFFFFFF:x}\n"


_PROGRAMS = {
    "compress": _compress, "eqntott": _eqntott, "espresso": _espresso,
    "li": _li, "sc": _sc, "cc1": _cc1, "quick": _quick, "merge": _merge,
    "matrix": _matrix, "sieve": _sieve, "hashtab": _hashtab, "bfs": _bfs,
    "nqueens": _nqueens, "crc": _crc, "strings": _strings, "life": _life,
    "churn": _churn, "fileio": _fileio, "fib": _fib, "bitops": _bitops,
}

PROGRAM_NAMES = tuple(_PROGRAMS)


def expected_stdout(program: str, arg: int) -> bytes:
    """What ``program`` prints when run with the scale argument ``arg``."""
    return _PROGRAMS[program](arg).encode()


def expected_files(program: str, arg: int) -> dict[str, bytes]:
    """Files the program itself leaves behind (analysis output excluded)."""
    if program == "fileio":
        return {"records.dat": fileio_records(arg)}
    return {}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---- properties of the method -----------------------------------------------

#: The report lines in which a counting tool states the application's
#: dynamic instruction count.
_TOTALS = {"prof": re.compile(rb"^total instructions: (\d+)$", re.M),
           "dyninst": re.compile(rb"^dynamic instructions: (\d+)$", re.M)}

def reported_total(tool: str, report: bytes) -> int | None:
    """The instruction total a counting tool's report states, or None."""
    match = _TOTALS[tool].search(report)
    return int(match.group(1)) if match else None


def check_program_output(program: str, arg: int, status: int,
                         stdout: bytes, files: dict[str, bytes]) -> list[str]:
    """The run printed and wrote what the Python recomputation says."""
    problems = []
    want = expected_stdout(program, arg)
    if stdout != want:
        problems.append(f"{program}({arg}) stdout {stdout!r} != {want!r}")
    if status != 0:
        problems.append(f"{program}({arg}) exit status {status} != 0")
    for name, data in expected_files(program, arg).items():
        if files.get(name) != data:
            problems.append(f"{program}({arg}) file {name} differs")
    return problems


def check_instrumented(tool: str, output_file: str, base, instr) -> list[str]:
    """ATOM's guarantees for one instrumented run against its base run.

    ``base`` and ``instr`` are :class:`repro.machine.RunResult`-shaped:
    ``status``, ``stdout``, ``files``, ``inst_count``, ``heap_base`` and
    ``initial_sp``.
    """
    problems = []
    if instr.stdout != base.stdout:
        problems.append("instrumented stdout differs from the base run")
    if instr.status != base.status:
        problems.append(f"instrumented status {instr.status} "
                        f"!= base {base.status}")
    if instr.heap_base != base.heap_base:
        problems.append(f"heap_base moved: {instr.heap_base:#x} "
                        f"!= {base.heap_base:#x}")
    if instr.initial_sp != base.initial_sp:
        problems.append(f"initial_sp moved: {instr.initial_sp:#x} "
                        f"!= {base.initial_sp:#x}")
    for name, data in base.files.items():
        if instr.files.get(name) != data:
            problems.append(f"application file {name} differs")
    if output_file not in instr.files:
        problems.append(f"{tool} wrote no {output_file}")
    elif tool in _TOTALS:
        total = reported_total(tool, instr.files[output_file])
        if total != base.inst_count:
            problems.append(f"{tool} total {total} != uninstrumented "
                            f"inst_count {base.inst_count}")
    return problems
