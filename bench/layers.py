"""Traced run: per-layer metrics, measured in this process.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out when the run ends. A layer's self time is its spans' duration
minus the time their child spans cover; for the read, step and write of the
`check` loop, the tracer's own time inside a span, measured on empty spans,
is taken off as well. All spans are recorded from the benchmark's own code
around calls into the public functions of stlobs; the conformance counts
come from wrapping the names `stlobs.conformance` looks up, and
`Monitor.step`, in this process only.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

from drive import Cli, live_pass, percentile, selfcheck_pass
from inputs import SELFCHECK_CASES, WIDE_ROWS, WIDE_SIGNALS, generate, wide_tenths
from verify import EXIT_FOR_VERDICT, StreamChecker, import_stlobs

BLOCK_ROWS = 1000
# Decided steps timed at least, when the trace itself has fewer.
DECIDED_STEPS = 20_000
LOOP_REPEATS = 5
WIDTHS = (2, 1000, 100_000)
WIDTH_STEPS = 20_000
WIDTH_REPEATS = 3
WIDTH_FORMULAS = {
    "F": "F[0,{w}] (gear >= 6)",
    "G": "G[0,{w}] (speed < 20 | brake > 0)",
    "U": "(speed >= 0) U[0,{w}] (gear >= 6)",
}
SETUP_REPEATS = 25
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import stlobs.cli; "
    "print(time.perf_counter() - t)"
)

PER_LAYER_UNITS = {
    "setup.import_ms": "ms",
    "parser.parse_ms": "ms",
    "monitor.compile_ms": "ms",
    "traceio.read_us": "us",
    "monitor.step_us.open": "us",
    "monitor.step_us.decided": "us",
    "traceio.write_us": "us",
    "cli.loop_us": "us",
    "monitor.state_scalars": "count",
    **{f"monitor.state_scalars.{op}": "count" for op in WIDTH_FORMULAS},
    **{f"monitor.step_us.{op}.w{w}": "us" for op in WIDTH_FORMULAS for w in WIDTHS},
    "live.rtt_p99_us": "us",
    "conformance.sweep_s": "s",
    "conformance.induction_s": "s",
    "conformance.properties_s": "s",
    "conformance.other_s": "s",
    "oracle.three_valued_eval.calls": "count",
    "oracle.three_valued_eval_s": "s",
    "oracle.offline_eval.calls": "count",
    "monitor.compile.calls": "count",
    "monitor.compile_s": "s",
    "monitor.step.calls": "count",
    "monitor.step_s": "s",
    "lustregen.emit_ms": "ms",
    "tracing.overhead": "ratio",
}


class Tracer:
    """Spans in flat arrays: name id, parent span id, start and end in ns."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []

    def nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(self.nid(name))
        try:
            yield sid
        finally:
            self.finish(sid)

    def wrap(self, name: str, fn):
        nid = self.nid(name)

        def traced(*args, **kwargs):
            sid = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid)

        return traced

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, total seconds, self seconds)."""
        child = [0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out = {name: [0, 0, 0] for name in self.names}
        for sid, nid in enumerate(self.name):
            acc = out[self.names[nid]]
            duration = self.end[sid] - self.start[sid]
            acc[0] += 1
            acc[1] += duration
            acc[2] += duration - child[sid]
        return {k: (n, total / 1e9, own / 1e9) for k, (n, total, own) in out.items()}

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, nid in enumerate(self.name):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[nid]},"
                    f"{self.start[sid]},{self.end[sid]}\n"
                )


def span_cost_us(samples: int = 20_000) -> float:
    """The tracer's own time inside one span: the median length of an empty
    span, opened and closed as the traced loop does it. Subtracted from the
    self time of the loop's read, step and write spans."""
    probe = Tracer()
    nid = probe.nid("empty")
    begin, finish = probe.begin, probe.finish
    for _ in range(samples):
        sid = begin(nid)
        finish(sid)
    return statistics.median(e - s for s, e in zip(probe.start, probe.end)) / 1e3


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def pipeline(stl, tracer: Tracer, inp, out_path: Path) -> dict:
    """The `check` loop of the CLI over a trace file, in blocks of BLOCK_ROWS
    samples that take turns: a copy of the CLI's loop, then the same loop
    with a span around each read, step and write. Both share the reader,
    monitor, writer, output file and CPU, and alternate faster than the
    host's speed changes, so the untraced blocks are the baseline of the
    traced ones. Returns the rows and seconds of each kind of block, and the
    monitor."""
    read, step_open = tracer.nid("traceio.read"), tracer.nid("monitor.step.open")
    step_decided, write = tracer.nid("monitor.step.decided"), tracer.nid("traceio.write")
    unknown = stl.trilean.UNKNOWN
    begin, finish, names = tracer.begin, tracer.finish, tracer.name
    clock_ns = time.perf_counter_ns
    rows = {"traced": 0, "untraced": 0}
    ns = {"traced": 0, "untraced": 0}
    with tracer.span("cli.check"), \
            open(inp.path, encoding="utf-8", newline="") as lines, \
            open(out_path, "w", encoding="utf-8") as out:
        if inp.path.suffix == ".csv":
            signals, samples = stl.traceio.stream_csv(lines)
        else:
            samples = stl.traceio.read_jsonl_stream(lines, None)
            sid = begin(read)
            first = next(samples)
            finish(sid)
            signals = tuple(sorted(first))
            samples = itertools.chain([first], samples)
        with tracer.span("parser.parse"):
            formula = stl.parser.parse(inp.formula, signals)
        with tracer.span("monitor.compile"):
            monitor = stl.monitor.compile_formula(formula)
        writer = stl.traceio.VerdictWriter(out, inp.verdict_format)
        with tracer.span("cli.loop"):
            while True:
                start, count = clock_ns(), 0
                for sample in itertools.islice(samples, BLOCK_ROWS):
                    record = monitor.step(sample)
                    writer.write(record)
                    count += 1
                ns["untraced"] += clock_ns() - start
                rows["untraced"] += count
                if count < BLOCK_ROWS:
                    break
                start, count = clock_ns(), 0
                while count < BLOCK_ROWS:
                    sid = begin(read)
                    sample = next(samples, None)
                    finish(sid)
                    if sample is None:
                        break
                    sid = begin(step_open)
                    record = monitor.step(sample)
                    finish(sid)
                    if record.verdict is not unknown:
                        names[sid] = step_decided
                    sid = begin(write)
                    writer.write(record)
                    finish(sid)
                    count += 1
                ns["traced"] += clock_ns() - start
                rows["traced"] += count
                if count < BLOCK_ROWS:
                    break
    return {
        "rows": rows,
        "seconds": {kind: t / 1e9 for kind, t in ns.items()},
        "monitor": monitor,
    }


def decided_steps(stl, tracer: Tracer, inp, monitor, count: int) -> int:
    """Step `count` more samples, the trace's first ones again, through a
    monitor whose root has decided, each in a `monitor.step.decided` span.
    A decided verdict is final, so every step must repeat it; returns the
    steps that did not."""
    with open(inp.path, encoding="utf-8", newline="") as lines:
        if inp.path.suffix == ".csv":
            samples = list(itertools.islice(stl.traceio.stream_csv(lines)[1], count))
        else:
            samples = list(itertools.islice(stl.traceio.read_jsonl_stream(lines, None), count))
    step, nid = monitor.step, tracer.nid("monitor.step.decided")
    begin, finish = tracer.begin, tracer.finish
    wrong = 0
    for sample in samples:
        sid = begin(nid)
        record = step(sample)
        finish(sid)
        wrong += str(record.verdict) != inp.final
    return wrong


def cli_loop_us(stl, inp) -> tuple[float, bool]:
    """Per-sample cost of the CLI's own `check` loop: `stlobs.cli.main`
    runs `check` on the workload's trace in this process, with its reader,
    monitor and writer swapped for stubs that cost next to nothing (a list
    iterator, a step that returns one fixed record, a write that drops it).
    The time of a one-sample run is taken off, leaving the loop. Returns
    (median over LOOP_REPEATS, every run exited as its fixed `U` requires)."""
    cli = stl.cli
    samples = [dict(zip(inp.signals, row)) for row in inp.values()]
    record = stl.monitor.compile_formula(stl.parser.parse(inp.formula, inp.signals)).step(samples[0])
    feed = samples

    class Monitor:
        def step(self, sample):
            return record

    class Writer:
        def __init__(self, out, fmt):
            pass

        def write(self, record):
            pass

    stubs = {
        "stream_csv": lambda lines: (inp.signals, iter(feed)),
        "read_jsonl_stream": lambda lines, declared: iter(feed),
        "compile_formula": lambda formula: Monitor(),
        "VerdictWriter": Writer,
    }
    saved = {name: getattr(cli, name) for name in stubs}
    argv = ["check", "--trace", str(inp.path), "-f", inp.formula]
    ok = True

    def run(rows: list) -> float:
        nonlocal feed, ok
        feed = rows
        start = time.perf_counter()
        ok &= cli.main(argv) == EXIT_FOR_VERDICT[str(record.verdict)]
        return time.perf_counter() - start

    try:
        for name, stub in stubs.items():
            setattr(cli, name, stub)
        per_sample = [
            (run(samples) - run(samples[:1])) / (len(samples) - 1)
            for _ in range(LOOP_REPEATS)
        ]
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)
    return statistics.median(per_sample) * 1e6, ok and str(record.verdict) == "U"


def check_file(path: Path, inp) -> int:
    """Failed ticks in a verdict file written by the traced pipeline."""
    checker = StreamChecker(inp.verdict_format, inp.rows, inp.expected)
    checker.feed(path.read_bytes(), 0.0)
    return checker.finish(EXIT_FOR_VERDICT[inp.final])


def widths(stl, tracer: Tracer, seed: int) -> dict[str, float]:
    """Single-operator step cost at each window width on csv-wide data.
    A fresh monitor every w + 1 steps keeps every timed step inside the
    window; the median over repeats is reported."""
    rows = wide_tenths(seed, WIDE_ROWS)[:WIDTH_STEPS]
    samples = [dict(zip(WIDE_SIGNALS, (v / 10 for v in row))) for row in rows]
    out = {}
    for op, text in WIDTH_FORMULAS.items():
        for w in WIDTHS:
            formula = stl.parser.parse(text.format(w=w), WIDE_SIGNALS)
            per_step = []
            for _ in range(WIDTH_REPEATS):
                spent = 0
                with tracer.span(f"monitor.step.{op}.w{w}"):
                    for base in range(0, WIDTH_STEPS, w + 1):
                        step = stl.monitor.compile_formula(formula).step
                        chunk = samples[base:base + w + 1]
                        start = time.perf_counter_ns()
                        for sample in chunk:
                            step(sample)
                        spent += time.perf_counter_ns() - start
                per_step.append(spent / WIDTH_STEPS / 1e3)
            out[f"monitor.step_us.{op}.w{w}"] = statistics.median(per_step)
        formula = stl.parser.parse(text.format(w=WIDTHS[1]), WIDE_SIGNALS)
        out[f"monitor.state_scalars.{op}"] = stl.monitor.compile_formula(formula).state_scalar_count()
    return out


def conformance(stl, tracer: Tracer) -> tuple[int, int]:
    """The selfcheck suites in process, with oracle, compile and step calls
    wrapped in spans. Returns (attempted, failed) cases."""
    conf, monitor_cls = stl.conformance, stl.monitor.Monitor
    saved = {name: getattr(conf, name) for name in ("three_valued_eval", "offline_eval", "compile_formula")}
    saved_step = monitor_cls.step
    compile_fn = tracer.wrap("monitor.compile", saved["compile_formula"])
    conf.three_valued_eval = tracer.wrap("oracle.three_valued_eval", saved["three_valued_eval"])
    conf.offline_eval = tracer.wrap("oracle.offline_eval", saved["offline_eval"])
    conf.compile_formula = compile_fn
    monitor_cls.step = tracer.wrap("monitor.step", saved_step)

    def call(fn, *args, **kwargs):
        if "compile_fn" in inspect.signature(fn).parameters:
            kwargs["compile_fn"] = compile_fn
        return fn(*args, **kwargs)

    try:
        with tracer.span("conformance"):
            with tracer.span("conformance.sweep"):
                sweep = call(conf.differential_sweep, max_upper=3)
            with tracer.span("conformance.induction"):
                induction = call(conf.induction_suite, max_lower=3, max_upper=3)
            with tracer.span("conformance.properties"):
                properties = call(conf.property_suite, 42, SELFCHECK_CASES["properties"])
    finally:
        for name, fn in saved.items():
            setattr(conf, name, fn)
        monitor_cls.step = saved_step
    reports = {"sweep": sweep, "induction": induction, "properties": properties}
    failed = sum(
        min(cases, len(reports[suite].failures) + abs(reports[suite].cases - cases))
        for suite, cases in SELFCHECK_CASES.items()
    )
    return sum(SELFCHECK_CASES.values()), failed


def traced(workload: str, seed: int, root: Path, work: Path) -> dict:
    stl = import_stlobs(root)
    tracer = Tracer()
    cli = Cli(root, work)
    attempted = failed = 0
    m: dict[str, float] = {}
    report: dict[str, object] = {}
    try:
        cli.warm()
        inp = generate(workload, seed, work)

        imports = [
            float(subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=cli.env, capture_output=True,
                check=True, timeout=60,
            ).stdout)
            for _ in range(IMPORT_PROBES)
        ]
        m["setup.import_ms"] = statistics.median(imports) * 1e3
        formula = stl.parser.parse(inp.formula, inp.signals)
        m["parser.parse_ms"] = _median_ms(lambda: stl.parser.parse(inp.formula, inp.signals), SETUP_REPEATS)
        m["monitor.compile_ms"] = _median_ms(lambda: stl.monitor.compile_formula(formula), SETUP_REPEATS)

        out_path = work / "traced-verdicts.out"
        empty_us = span_cost_us()
        run = pipeline(stl, tracer, inp, out_path)
        attempted += inp.rows
        failed += check_file(out_path, inp)
        monitor = run["monitor"]
        m["monitor.state_scalars"] = monitor.state_scalar_count()
        spans = tracer.summary()
        report["span_cost_us"] = empty_us
        for name in ("traceio.read", "traceio.write"):
            count, _, own = spans[name]
            m[f"{name}_us"] = (own * 1e6 - count * empty_us) / run["rows"]["traced"]
        open_n, _, open_s = spans["monitor.step.open"]
        m["monitor.step_us.open"] = open_s * 1e6 / open_n - empty_us
        if spans.get("monitor.step.decided", (0,))[0] < DECIDED_STEPS:
            attempted += DECIDED_STEPS
            failed += decided_steps(stl, tracer, inp, monitor, DECIDED_STEPS)
            spans = tracer.summary()
        decided_n, _, decided_s = spans["monitor.step.decided"]
        m["monitor.step_us.decided"] = decided_s * 1e6 / decided_n - empty_us
        m["cli.loop_us"], loop_ok = cli_loop_us(stl, inp)
        attempted += 1
        failed += not loop_ok
        rates = {kind: run["rows"][kind] / run["seconds"][kind] for kind in ("traced", "untraced")}
        m["tracing.overhead"] = rates["traced"] / rates["untraced"]
        report.update({f"rows_per_s.{kind}": rate for kind, rate in rates.items()})

        m.update(widths(stl, tracer, seed))

        case_attempts, case_failures = conformance(stl, tracer)
        attempted += case_attempts
        failed += case_failures
        spans = tracer.summary()
        for suite in ("sweep", "induction", "properties"):
            m[f"conformance.{suite}_s"] = spans[f"conformance.{suite}"][1]
        m["conformance.other_s"] = sum(spans[f"conformance.{s}"][2] for s in ("sweep", "induction", "properties"))
        for name in ("oracle.three_valued_eval", "oracle.offline_eval", "monitor.compile", "monitor.step"):
            calls, total, _ = spans.get(name, (0, 0.0, 0.0))
            m[f"{name}.calls"] = calls
            if name != "oracle.offline_eval":
                m[f"{name}_s"] = total
        cases, wrong, wall = selfcheck_pass(cli)
        attempted += cases
        failed += wrong
        report["selfcheck_s.traced"] = spans["conformance"][1]
        report["selfcheck_s.untraced"] = wall

        live = live_pass(cli, inp if workload == "live-stdin" else generate("live-stdin", seed, work))
        attempted += live.attempted
        failed += live.failed
        m["live.rtt_p99_us"] = percentile(live.op_us, 0.99)

        with tracer.span("lustregen.emit_units"):
            m["lustregen.emit_ms"] = _median_ms(lambda: stl.lustregen.emit_units(with_proofs=True), SETUP_REPEATS)
    finally:
        cli.close()

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}.csv.gz"
    tracer.dump(spans_file)
    report["spans"] = f"{len(tracer.start)} spans in {spans_file.relative_to(root)}"
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (m[k], unit) for k, unit in PER_LAYER_UNITS.items()},
        "report": report,
    }
