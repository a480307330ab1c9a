"""Runs the stlobs CLI from the checkout's `src/` as a child process and
times what a user of it sees.

A child's peak resident memory is VmHWM of /proc/<pid>/status, sampled
while it runs. Reads go through `poll` with a deadline, so a child that stops
answering is killed and its missing output counted as failed, never waited
on forever.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import SELFCHECK_ARGS, SELFCHECK_CASES, CheckInput, csv_lines
from verify import StreamChecker, check_selfcheck

PASS_TIMEOUT_S = 150.0
ROW_TIMEOUT_S = 2.0

clock = time.perf_counter


class Cli:
    """Spawns `python -m stlobs.cli` with the checkout's sources first on
    the import path.

    Placement is fixed, because the scheduler's own choice moves a live round
    trip between about 40 and 90 us from one loop to the next: this process
    runs on its home CPU, and so does a child that takes turns with it (the
    live loop); a child that runs while this process reads its output runs
    on the away CPU. They start as the first and the last CPU this process
    may use, and `swap` exchanges them. On a shared host one CPU can run
    slower than the other for minutes, so a run that swaps between its
    probes and passes measures both.
    """

    def __init__(self, root: Path, workdir: Path):
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.workdir = workdir
        self.stderr = open(workdir / "stderr.log", "ab")
        cpus = sorted(os.sched_getaffinity(0))
        self.home_cpu, self.away_cpu = cpus[0], cpus[-1]
        os.sched_setaffinity(0, {self.home_cpu})

    def swap(self) -> None:
        self.home_cpu, self.away_cpu = self.away_cpu, self.home_cpu
        os.sched_setaffinity(0, {self.home_cpu})

    def close(self) -> None:
        self.stderr.close()

    def argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "stlobs.cli", *args]

    def spawn(self, argv: list[str], stdin=subprocess.DEVNULL, away: bool = True) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, stdin=stdin, stdout=subprocess.PIPE, stderr=self.stderr,
            env=self.env, cwd=self.workdir, bufsize=0,
        )
        if away:
            os.sched_setaffinity(proc.pid, {self.away_cpu})
        return proc

    def warm(self) -> None:
        """Import once so byte-code caches exist before anything is timed."""
        subprocess.run(
            [sys.executable, "-c", "import stlobs.cli"], env=self.env,
            stderr=self.stderr, check=True, timeout=60,
        )

    def check_argv(self, inp: CheckInput, trace: str | None = None) -> list[str]:
        return self.argv(
            "check", "--format", inp.verdict_format,
            "--trace", trace or str(inp.path), "-f", inp.formula,
        )


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class PeakRss:
    """Peak resident memory of a child: VmHWM of /proc/<pid>/status, read
    while the child runs, at most every SAMPLE_S seconds.

    `ru_maxrss` from `wait4` does not serve: Linux carries the spawning
    process's high-water mark across exec, so it reads this benchmark's own
    size whenever that is larger than the child's. VmHWM belongs to the
    address space the child made at exec.
    """

    SAMPLE_S = 0.1

    def __init__(self, pid: int):
        self.path = f"/proc/{pid}/status"
        self.kb = 0
        self._due = 0.0

    def sample(self, now: float) -> None:
        if now < self._due:
            return
        self._due = now + self.SAMPLE_S
        try:
            with open(self.path, "rb") as status:
                for line in status:
                    if line.startswith(b"VmHWM:"):
                        self.kb = max(self.kb, int(line.split()[1]))
                        break
        except OSError:  # the child has exited
            pass

    @property
    def mb(self) -> float:
        return self.kb / 1024


def reap(proc: subprocess.Popen, timeout: float = 10.0) -> int | None:
    """Close the pipes and wait for the child: its exit code, or None when
    it was still running after `timeout` and had to be killed."""
    for stream in (proc.stdin, proc.stdout):
        if stream:
            stream.close()
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def pump(proc: subprocess.Popen, on_chunk, deadline: float, stop=lambda: False,
         memory: PeakRss | None = None) -> bool:
    """Feed the child's stdout to `on_chunk(bytes, arrival_time)` until EOF
    (True), `stop()` (True) or the deadline (False), sampling `memory` on
    the way."""
    fd = proc.stdout.fileno()
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    while not stop():
        now = clock()
        if memory:
            memory.sample(now)
        if now >= deadline:
            return False
        if not poller.poll(min(deadline - now, PeakRss.SAMPLE_S) * 1000):
            continue
        chunk = os.read(fd, 1 << 16)
        now = clock()
        if not chunk:
            return True
        on_chunk(chunk, now)
    return True


@dataclass
class Pass:
    """One complete run of a workload's command."""

    attempted: int
    failed: int
    rss_mb: float
    ops_per_s: float
    op_us: list[float] = field(default_factory=list)
    bad: set[int] = field(default_factory=set)


def _checker(inp: CheckInput) -> StreamChecker:
    return StreamChecker(inp.verdict_format, inp.rows, inp.expected)


def setup_probe(cli: Cli, argv: list[str], first_input: bytes | None,
                checker: StreamChecker) -> tuple[float, bool]:
    """Spawn `argv`, wait for its first verdict line and kill it.
    Returns (seconds from spawn to that line, line correct)."""
    start = clock()
    live = first_input is not None
    proc = cli.spawn(argv, stdin=subprocess.PIPE if live else subprocess.DEVNULL, away=not live)
    if live:
        os.write(proc.stdin.fileno(), first_input)
    pump(proc, checker.feed, start + PASS_TIMEOUT_S, stop=lambda: checker.lines > 0)
    proc.kill()
    reap(proc)
    if checker.first_time is None:
        return PASS_TIMEOUT_S, False
    return checker.first_time - start, 0 not in checker.bad


def check_setup(cli: Cli, inp: CheckInput, live: bool) -> tuple[float, bool]:
    if live:
        first = b"".join(csv_lines(inp, rows=1))
        return setup_probe(cli, cli.check_argv(inp, "-"), first, _checker(inp))
    return setup_probe(cli, cli.check_argv(inp), None, _checker(inp))


def file_pass(cli: Cli, inp: CheckInput) -> Pass:
    """`stlobs check` over the whole trace file, output drained from a pipe
    and checked as it arrives."""
    checker = _checker(inp)
    proc = cli.spawn(cli.check_argv(inp))
    memory = PeakRss(proc.pid)
    if not pump(proc, checker.feed, clock() + PASS_TIMEOUT_S, memory=memory):
        proc.kill()
    failed = checker.finish(reap(proc))
    span = (checker.last_time or 0.0) - (checker.first_time or 0.0)
    rate = (checker.lines - 1) / span if span > 0 else 0.0
    return Pass(inp.rows, failed, memory.mb, rate, checker.per_line_block_us(), checker.bad)


def live_loop(argv: list[str], env: dict, lines: list[bytes], checker: StreamChecker,
              row_timeout: float = ROW_TIMEOUT_S, stderr=None) -> Pass:
    """Closed loop with one caller: write `lines[0]` (the header) and one row,
    wait for that row's verdict line, then send the next row. A row whose
    verdict does not arrive within `row_timeout` ends the loop; it and every
    row after it count as failed."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=stderr, env=env, bufsize=0)
    out, into = proc.stdout.fileno(), proc.stdin.fileno()
    poller = select.poll()
    poller.register(out, select.POLLIN)
    memory = PeakRss(proc.pid)
    buf = b""

    def read_line(sent: float) -> bytes | None:
        nonlocal buf
        while b"\n" not in buf:
            remaining = sent + row_timeout - clock()
            if remaining <= 0:
                return None
            if not poller.poll(remaining * 1000):
                continue
            chunk = os.read(out, 1 << 16)
            if not chunk:
                return None
            buf += chunk
        line, _, buf = buf.partition(b"\n")
        return line + b"\n"

    rtts: list[float] = []
    started = last_answer = clock()
    try:
        for k, row in enumerate(lines[1:]):
            sent = clock()
            os.write(into, lines[0] + row if k == 0 else row)
            line = read_line(sent)
            answered = clock()
            if line is None:
                proc.kill()
                break
            if k == 0:
                started = answered
            else:
                rtts.append(answered - sent)
            last_answer = answered
            checker.feed(line, answered)
            memory.sample(answered)
        else:
            proc.stdin.close()
            checker.feed(buf, clock())
            pump(proc, checker.feed, clock() + row_timeout, memory=memory)
    except BrokenPipeError:
        pass
    failed = checker.finish(reap(proc, timeout=row_timeout))
    span = last_answer - started
    rate = len(rtts) / span if span > 0 else 0.0
    return Pass(checker.n, failed, memory.mb, rate, [r * 1e6 for r in rtts], checker.bad)


def live_pass(cli: Cli, inp: CheckInput) -> Pass:
    return live_loop(cli.check_argv(inp, "-"), cli.env, csv_lines(inp), _checker(inp), stderr=cli.stderr)


def selfcheck_pass(cli: Cli) -> tuple[int, int, float]:
    """One `selfcheck` run, its report checked: (cases attempted, cases
    failed, wall seconds)."""
    chunks: list[bytes] = []
    start = clock()
    proc = cli.spawn(cli.argv(*SELFCHECK_ARGS))
    if not pump(proc, lambda chunk, _: chunks.append(chunk), start + PASS_TIMEOUT_S):
        proc.kill()
    code = reap(proc)
    wall = clock() - start
    return (*check_selfcheck(b"".join(chunks), code, SELFCHECK_CASES), wall)
