"""End-to-end command-line tests, run in process through cli.main."""

import contextlib
import io
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stlobs
from stlobs import cli, options

from readback import read_verdicts

CSV_TRACE = "x,y\n1,0\n2,0\n3,0\n"


def spawn_cli(*args: str, **environ: str) -> subprocess.Popen:
    """`python -m stlobs.cli *args` from these sources, with piped stdin,
    stdout and stderr, stdout block-buffered as it is by default, and
    `environ` added to the environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent), **environ)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "stlobs.cli", *args],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(CSV_TRACE)
    return str(path)


@pytest.fixture
def jsonl_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"x": 1, "y": 0}\n{"x": 2, "y": 0}\n{"x": 3, "y": 0}\n')
    return str(path)


class TestCheckVerdictExits:
    def test_true_exits_zero(self, csv_path, capsys):
        code = cli.main(["check", "-f", "F[0,2] (x > 2)", "--trace", csv_path])
        out = capsys.readouterr().out
        assert code == cli.EXIT_TRUE
        assert out.splitlines() == [
            "tick=0 verdict=U pos=0 neg=0",
            "tick=1 verdict=U pos=0 neg=0",
            "tick=2 verdict=T pos=1 neg=0",
        ]

    def test_false_exits_one(self, csv_path):
        assert (
            cli.main(["check", "-f", "G[0,1] (x > 5)", "--trace", csv_path])
            == cli.EXIT_FALSE
        )

    def test_unknown_exits_two(self, csv_path):
        assert (
            cli.main(["check", "-f", "G[0,9] (x > 0)", "--trace", csv_path])
            == cli.EXIT_UNKNOWN
        )

    def test_empty_trace_is_a_trace_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = cli.main(["check", "-f", "x > 0", "--trace", str(path)])
        assert code == cli.EXIT_DATA
        assert "trace error" in capsys.readouterr().err


class TestCheckInputModes:
    def test_jsonl_auto_sniffed(self, jsonl_path, capsys):
        code = cli.main(["check", "-f", "F[0,2] (x > 2)", "--trace", jsonl_path])
        assert code == cli.EXIT_TRUE
        assert "tick=2 verdict=T" in capsys.readouterr().out

    def test_stdin_jsonl(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"x": 3}\n{"x": 0}\n')
        )
        code = cli.main(["check", "-f", "G[0,1] (x > 1)", "--trace", "-"])
        assert code == cli.EXIT_FALSE
        assert "tick=1 verdict=F" in capsys.readouterr().out

    def test_stdin_csv(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x\n1\n2\n"))
        code = cli.main(["check", "-f", "F[0,1] (x > 1)", "--trace", "-"])
        assert code == cli.EXIT_TRUE

    def test_early_stop_truncates_output(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"x": 3}\n{"x": 0}\n{"x": 0}\n')
        )
        code = cli.main(
            ["check", "-f", "F[0,2] (x > 2)", "--trace", "-", "--early-stop"]
        )
        assert code == cli.EXIT_TRUE
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_declared_signals_validate_formula(self, jsonl_path, capsys):
        code = cli.main(
            ["check", "-f", "z > 0", "--trace", jsonl_path, "--signals", "x,y"]
        )
        assert code == cli.EXIT_USAGE
        assert "formula error" in capsys.readouterr().err

    def test_formula_file(self, tmp_path, csv_path):
        formula = tmp_path / "f.stl"
        formula.write_text("F[0,2] (x > 2)\n")
        code = cli.main(
            ["check", "--formula-file", str(formula), "--trace", csv_path]
        )
        assert code == cli.EXIT_TRUE

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    def test_output_formats_parse_back(self, csv_path, capsys, fmt):
        cli.main(
            ["check", "-f", "F[0,2] (x > 2)", "--trace", csv_path, "--format", fmt]
        )
        records = read_verdicts(capsys.readouterr().out.splitlines(), fmt)
        assert [str(r.verdict) for r in records] == ["U", "U", "T"]


class TestLeadingBlankLines:
    """Auto-detected and declared trace formats read the same file the same
    way, and an error names the file's own line, blank lines before the
    first record included."""

    @pytest.mark.parametrize(
        "text,fmt,ticks,error",
        [
            ('\n\n{"x": 1.0}\n{oops\n', "jsonl", 1, "line 4: invalid JSON"),
            ("\nx\n1.0\nzz\n", "csv", 1, "line 4, column 1: not a number"),
            ("\n \r\nx,time\n1,2\n", "csv", 0, "line 3: 'time' looks like a time axis"),
            ('\n\n{"x": 2.0}\n\n{"x": -1.0}\n', "jsonl", 2, None),
            ("\n\nx\n2.0\n\n-1.0\n", "csv", 2, None),
        ],
    )
    @pytest.mark.parametrize("trace_format", ["auto", "declared"])
    def test_same_verdicts_and_line_numbers(
        self, tmp_path, capsys, text, fmt, ticks, error, trace_format
    ):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        argv = ["check", "-f", "x > 0", "--trace", str(path)]
        if trace_format == "declared":
            argv += ["--trace-format", fmt]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"tick={k} verdict=T pos=1 neg=0" for k in range(ticks)]
        if error is None:
            assert code == cli.EXIT_TRUE
        else:
            assert code == cli.EXIT_DATA
            assert f"trace error: {error}" in captured.err


@pytest.mark.parametrize("signals", [[], ["--signals", "x,y"]])
def test_jsonl_with_ints_and_extra_keys_reads_as_its_csv(tmp_path, capsys, signals):
    """JSONL lines that leave the one-decode path (ints, extra keys, keys
    out of order) give the verdicts of the same rows written as CSV."""
    rows = [(0.5, 1), (3, -2.25), (1.0, 2.0), (-7, 4), (2.5, 0.0)]
    extras = ["", ', "debug": 1', "", "", ', "note": "n"']
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text("".join(
        f'{{"y": {y}, "x": {x}{extra}}}\n' for (x, y), extra in zip(rows, extras)
    ))
    csv = tmp_path / "trace.csv"
    csv.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in rows))
    formula = "G[0,4] (x + y > -4) & F[1,3] (2*x - y >= 4)"
    results = []
    for path in (jsonl, csv):
        code = cli.main(["check", "-f", formula, "--trace", str(path), "--format", "jsonl", *signals])
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1]
    assert results[0][0] == cli.EXIT_TRUE


class TestErrorExits:
    def test_bad_formula_syntax(self, csv_path, capsys):
        code = cli.main(["check", "-f", "G[2,1] (x > 0)", "--trace", csv_path])
        assert code == cli.EXIT_USAGE
        assert "formula error" in capsys.readouterr().err

    def test_unknown_signal_in_formula(self, csv_path, capsys):
        code = cli.main(["check", "-f", "zz > 0", "--trace", csv_path])
        assert code == cli.EXIT_USAGE
        assert "zz" in capsys.readouterr().err

    def test_bad_trace_data(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x\noops\n")
        code = cli.main(["check", "-f", "x > 0", "--trace", str(path)])
        assert code == cli.EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"x": 1' + "0" * 400 + "}\n")
        code = cli.main(["check", "-f", "x > 0", "--trace", str(path)])
        assert code == cli.EXIT_DATA
        assert "too large" in capsys.readouterr().err

    def test_jsonl_missing_signal_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"x": 1, "y": 2}\n{"x": 3}\n')
        code = cli.main(["check", "-f", "x > 0 & y > 0", "--trace", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            cli.EXIT_DATA,
            "tick=0 verdict=T pos=1 neg=0\n",
            "trace error: missing signal value(s) at line 2: y\n",
        )

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(
            ["check", "-f", "x > 0", "--trace", str(tmp_path / "nope.csv")]
        )
        assert code == cli.EXIT_NOINPUT
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize(
        "formula,message",
        [
            ("x > 1/0", "number 1/0 has a zero denominator (column 5)"),
            ("0/0*x > 1", "number 0/0 has a zero denominator (column 1)"),
            ("G[0,1/0] x > 0", "number 1/0 has a zero denominator (column 5)"),
        ],
    )
    def test_zero_denominator(self, csv_path, capsys, command, formula, message):
        code = cli.main([command, "-f", formula, "--trace", csv_path])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"formula error: {message}\n")

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_no_stdin(self, monkeypatch, capsys, command):
        # Started with its stdin closed (`<&-`), Python sets both to None.
        monkeypatch.setattr(sys, "stdin", None)
        monkeypatch.setattr(sys, "__stdin__", None)
        code = cli.main([command, "-f", "x > 0", "--trace", "-"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_NOINPUT, "", "input error: stdin is not open\n")

    def test_output_closed_by_its_reader(self):
        # As `stlobs check ... | head -1`: the reader takes one verdict line
        # and closes the pipe, so the verdict of the next row cannot be
        # written. The command stops at once, silently, with EX_IOERR.
        proc = spawn_cli("check", "-f", "G[0,9] (x > 0)", "--trace", "-")
        try:
            proc.stdin.write(b"x\n1\n")
            proc.stdin.flush()
            assert proc.stdout.readline() == b"tick=0 verdict=U pos=0 neg=0\n"
            proc.stdout.close()
            proc.stdin.write(b"2\n3\n")
            proc.stdin.close()
            assert proc.wait(timeout=60) == cli.EXIT_IOERR
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_output_closed_before_a_buffered_report(self):
        # With stdout block-buffered, the selfcheck report is still in the
        # buffer when the command returns; its flush meets the closed pipe.
        proc = spawn_cli("selfcheck", "--max-b", "1", "--cases", "1")
        proc.stdin.close()
        proc.stdout.close()
        try:
            assert proc.wait(timeout=60) == cli.EXIT_IOERR
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_closed_output_drops_what_is_still_buffered(self, monkeypatch):
        # After a broken pipe, stdout's descriptor is pointed at os.devnull,
        # so the final flush of text still in its buffer cannot fail again.
        read_end, write_end = os.pipe()
        stream = open(write_end, "w", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stream)
        stream.write("still buffered\n")
        os.close(read_end)
        cli._discard_stdout()
        stream.close()

    def test_usage_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "--trace", "t.csv"])
        assert excinfo.value.code == cli.EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("stlobs ")


def test_every_command_has_a_handler():
    handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert {cli._handler(name).__name__ for name in options.COMMANDS} == handlers


class TestFormulaWithLeadingMinus:
    """A value option takes the next word unless that word names one of the
    command's options or begins with `--`, so a formula may begin with a
    single `-`."""

    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize("formula", ["-x>0", "-1*x>0", "-x > 0"])
    def test_runs_as_the_attached_form(self, tmp_path, capsys, command, formula):
        path = tmp_path / "t.csv"
        path.write_text("x\n-1\n2\n-3\n")
        results = []
        for argv in (["-f", formula], [f"--formula={formula}"], [f"-f{formula}"]):
            code = cli.main([command, *argv, "--trace", str(path)])
            results.append((code, capsys.readouterr()))
        assert results[0] == results[1] == results[2]
        code, captured = results[0]
        assert (code, captured.err) == (cli.EXIT_TRUE, "")
        # x is -1 at tick 0, where an atom is decided.
        assert captured.out.splitlines() == [f"tick={tick} verdict=T pos=1 neg=0" for tick in range(3)]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--trace", "--format", "csv"], "argument --trace: expected one argument"),
            (["--trace", "-h"], "argument --trace: expected one argument"),
            (["--trace", "t.csv", "-f", "--formula-file", "f"], "argument -f/--formula: expected one argument"),
            (["--trace", "t.csv", "-f", "--"], "argument -f/--formula: expected one argument"),
            (["--trace", "--sginals", "x"], "argument --trace: expected one argument"),
        ],
    )
    def test_a_word_that_names_an_option_is_no_value(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", "-f", "x > 0", *argv])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"stlobs check: error: {message}\n")

    def test_a_mistyped_long_option_is_no_value(self, tmp_path, capsys, monkeypatch):
        # Were it a value, the units would be written to a directory named
        # after the mistyped option.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["emit-lustre", "--out-dir", "--wiht-proofs"])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().err.endswith("stlobs emit-lustre: error: argument --out-dir: expected one argument\n")
        assert list(tmp_path.iterdir()) == []


def read_lines(fd: int, count: int, timeout: float) -> bytes:
    """`count` whole lines read from `fd`, or what came of them before
    `timeout` seconds passed or the writer closed it."""
    deadline = time.monotonic() + timeout
    data = b""
    while data.count(b"\n") < count:
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(fd, 1 << 16) if ready else b""
        if not chunk:
            break
        data += chunk
    return data


class LoggingRaw(io.RawIOBase):
    """A binary sink that keeps the bytes of each `write` call, taking at
    most `limit` of them a call."""

    def __init__(self, limit: int | None = None):
        self.writes: list[bytes] = []
        self.limit = limit

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        taken = bytes(data[: self.limit])
        self.writes.append(taken)
        return len(taken)


LOOP_ROWS = {
    "csv": [b"x\n1\n", b"2\n", b"3\n", b"0\n", b"4\n"],
    "jsonl": [b'{"x": 1}\n', b'{"x": 2}\n', b'{"x": 3}\n', b'{"x": 0}\n', b'{"x": 4}\n'],
}


class TestHeldVerdicts:
    """`check` holds its verdicts in a small buffer of its own while input
    is in hand and puts them out before each read of its input: a caller
    that sends one row and waits for its verdict gets it, a file's verdicts
    leave in few writes, and what is held is out when `check` stops."""

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    @pytest.mark.parametrize("trace_format", ["csv", "jsonl"])
    @pytest.mark.parametrize("source", ["stdin", "fifo"])
    def test_closed_loop(self, tmp_path, source, trace_format, fmt):
        # One row, then its verdict, then the next row: a verdict held past
        # the read of the next row never arrives.
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        argv = [sys.executable, "-m", "stlobs.cli", "check", "-f", "F[0,9] (x > 2)",
                "--format", fmt]
        trace = "-" if source == "stdin" else str(tmp_path / "trace.fifo")
        if source == "fifo":
            os.mkfifo(trace)
        proc = subprocess.Popen(
            argv + ["--trace", trace], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, bufsize=0,
        )
        try:
            # Opening a FIFO for writing waits for `check` to open it.
            into = proc.stdin if source == "stdin" else open(trace, "wb", buffering=0)
            got = b""
            for tick, row in enumerate(LOOP_ROWS[trace_format]):
                into.write(row)
                lines = tick + 1 + (fmt == "csv")
                got += read_lines(proc.stdout.fileno(), lines - got.count(b"\n"), timeout=20)
                assert got.count(b"\n") == lines, f"no verdict for tick {tick}"
            into.close()
            assert proc.wait(timeout=60) == cli.EXIT_TRUE
            records = read_verdicts(got.decode().splitlines(), fmt)
            assert [str(r.verdict) for r in records] == ["U", "U", "T", "T", "T"]
            assert proc.stdout.read() == b""
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            for stream in (into, proc.stdin, proc.stdout, proc.stderr):
                stream.close()

    @pytest.fixture
    def held(self, tmp_path, monkeypatch):
        """Returns a function that makes a file the interpreter's stdout, so
        that `check` holds its output, and puts a `LoggingRaw` with the given
        limit under each stream `check` builds there. It returns the list of
        the sinks made."""
        stream = open(tmp_path / "stdout", "w", encoding="utf-8")
        sinks: list[LoggingRaw] = []

        def make(limit: int | None = None) -> list[LoggingRaw]:
            def raw(fd):
                sinks.append(LoggingRaw(limit))
                return sinks[-1]

            monkeypatch.setattr(sys, "stdout", stream)
            monkeypatch.setattr(sys, "__stdout__", stream)
            monkeypatch.setattr(cli, "_stdout_raw", raw)
            return sinks

        yield make
        stream.close()

    @staticmethod
    def rows_file(tmp_path, rows: int, bad_row: int | None = None) -> str:
        path = tmp_path / "rows.csv"
        path.write_text("x\n" + "".join(
            "oops\n" if k == bad_row else f"{k}\n" for k in range(rows)
        ))
        return str(path)

    def unheld(self, argv, capsys) -> tuple[int, bytes, str]:
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out.encode(), captured.err

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    def test_file_verdicts_leave_in_few_writes(self, tmp_path, held, capsys, fmt):
        argv = ["check", "-f", "G[0,9999] (x >= 0)", "--trace", self.rows_file(tmp_path, 5000),
                "--format", fmt]
        expected = self.unheld(argv, capsys)
        sinks = held()
        code = cli.main(argv)
        [sink] = sinks
        assert (code, b"".join(sink.writes), capsys.readouterr().err) == expected
        assert len(sink.writes) < 5000 / 10
        assert max(map(len, sink.writes)) <= cli.HELD_BYTES

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    def test_a_sink_that_takes_5_bytes_a_call_gets_every_byte(self, tmp_path, held, capsys, fmt):
        argv = ["check", "-f", "G[0,9] (x >= 0)", "--trace", self.rows_file(tmp_path, 300),
                "--format", fmt]
        expected = self.unheld(argv, capsys)
        sinks = held(limit=5)
        code = cli.main(argv)
        assert (code, b"".join(sinks[0].writes), capsys.readouterr().err) == expected
        assert max(map(len, sinks[0].writes)) == 5

    @pytest.mark.parametrize(
        "formula,bad_row,extra,exit_code",
        [
            ("F[0,4000] (x > 2500)", None, ["--early-stop"], cli.EXIT_TRUE),
            ("G[0,9999] (x >= 0)", 3000, [], cli.EXIT_DATA),
            ("F[0,4000] (x > 2500)", 3000, ["--early-stop"], cli.EXIT_TRUE),
        ],
        ids=["early-stop", "bad-row", "early-stop-before-a-bad-row"],
    )
    def test_every_verdict_before_a_stop_is_out(
        self, tmp_path, held, capsys, formula, bad_row, extra, exit_code
    ):
        argv = ["check", "-f", formula, "--trace", self.rows_file(tmp_path, 5000, bad_row), *extra]
        expected = self.unheld(argv, capsys)
        assert expected[0] == exit_code
        assert expected[1].count(b"\n") == (2502 if extra else 3000)
        sinks = held()
        code = cli.main(argv)
        assert (code, b"".join(sinks[0].writes), capsys.readouterr().err) == expected

    @pytest.mark.parametrize("extra", [[], ["--early-stop"]])
    def test_output_closed_before_the_last_flush(self, csv_path, extra):
        # The file's verdicts are held until `check` reads its end or stops
        # early; their flush meets a pipe with no reader, and the command
        # stops silently with EX_IOERR.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stlobs.cli", "check", "-f", "x > 0",
                 "--trace", csv_path, *extra],
                stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_IOERR, b"")

    def test_replaced_stdin_is_written_line_by_line(self, held, monkeypatch, capsys):
        # Reads from a stream that is not the interpreter's stdin are not
        # hooked, so nothing may be held: each line goes through sys.stdout.
        sinks = held()
        monkeypatch.setattr(sys, "stdin", io.StringIO("x\n1\n2\n"))
        assert cli.main(["check", "-f", "F[0,1] (x > 1)", "--trace", "-"]) == cli.EXIT_TRUE
        assert sinks == []
        sys.stdout.flush()
        assert Path(sys.stdout.name).read_text() == (
            "tick=0 verdict=U pos=0 neg=0\ntick=1 verdict=T pos=1 neg=0\n"
        )


DEMO_CSV = "speed,brake\n12.0,0\n13.5,0\n15.2,1\n14.9,1\n15.0,0\n"
TIME_KEY = '{"time": 0, "x": 1}\n{"time": 1, "x": -1}\n'


# A declared signal that the formula reads but the trace does not carry.
MISSING_COLUMN = ["-f", "z > 0", "--signals", "x,z"]
# A row that does not read: the formula and its signals are checked first.
BAD_ROW = "x,y\n1,abc\n"


class TestOracle:
    @pytest.mark.parametrize(
        "name,text,args,exit_code",
        [
            ("a.json", "x\n1\n-1\n", [], cli.EXIT_TRUE),
            ("b.csv", '{"x": 1}\n{"x": -1}\n', [], cli.EXIT_TRUE),
            ("blank.csv", "\n \n\n", [], cli.EXIT_DATA),
            ("empty.jsonl", "", ["--trace-format", "jsonl"], cli.EXIT_DATA),
            ("-", '\n{"x": 1}\n{"x": -1}\n', [], cli.EXIT_TRUE),
            ("header.csv", "x\n", [], cli.EXIT_UNKNOWN),
            ("empty.jsonl", "", ["--trace-format", "jsonl", "--signals", "x"], cli.EXIT_UNKNOWN),
            ("time.jsonl", TIME_KEY, [], cli.EXIT_DATA),
            ("time.jsonl", TIME_KEY, ["--trace-format", "jsonl"], cli.EXIT_DATA),
            ("time.jsonl", TIME_KEY, ["--signals", "x"], cli.EXIT_TRUE),
            ("demo.csv", DEMO_CSV, ["-f", "F[1,3] (brake > 0)"], cli.EXIT_TRUE),
            ("-", DEMO_CSV, ["-f", "F[1,3] (brake > 0)"], cli.EXIT_TRUE),
            ("header.csv", "x,y\n", MISSING_COLUMN, cli.EXIT_DATA),
            ("-", "x,y\n", MISSING_COLUMN, cli.EXIT_DATA),
            ("-", "x,y\n1,2\n3,4\n", MISSING_COLUMN, cli.EXIT_DATA),
            ("-", '{"x": 1, "y": 2}\n', MISSING_COLUMN, cli.EXIT_DATA),
            ("bad.csv", BAD_ROW, ["-f", "x >"], cli.EXIT_USAGE),
            ("-", BAD_ROW, ["-f", "x >"], cli.EXIT_USAGE),
            ("bad.csv", BAD_ROW, MISSING_COLUMN, cli.EXIT_DATA),
            ("-", BAD_ROW, MISSING_COLUMN, cli.EXIT_DATA),
        ],
        ids=[
            "csv-in-a-json-file", "jsonl-in-a-csv-file", "blank-lines",
            "empty-declared-jsonl", "stdin", "header-only-csv",
            "declared-signals-no-lines", "time-key", "time-key-declared-jsonl",
            "time-key-outside-signals", "demo-file", "demo-stdin",
            "missing-column-header-only-file", "missing-column-header-only-stdin",
            "missing-column-with-rows", "missing-key-jsonl",
            "bad-formula-before-bad-row-file", "bad-formula-before-bad-row-stdin",
            "missing-column-before-bad-row-file", "missing-column-before-bad-row-stdin",
        ],
    )
    def test_matches_check_on_recorded_trace(self, tmp_path, name, text, args, exit_code):
        """Both commands, as processes, give the same stdout, stderr and exit
        code on the same input: from a file whatever it is called, or from
        stdin (`-`)."""
        if name == "-":
            trace, stdin = "-", text.encode()
        else:
            trace, stdin = str(tmp_path / name), b""
            Path(trace).write_text(text)
        if "-f" not in args:
            args = ["-f", "x > 0", *args]
        results = []
        for command in ("check", "oracle"):
            proc = spawn_cli(command, "--trace", trace, *args)
            out, err = proc.communicate(stdin, timeout=60)
            results.append((proc.returncode, out.decode(), err.decode()))
        assert results[0] == results[1]
        assert results[0][0] == exit_code

    def test_formula_signal_absent_from_trace(self, csv_path, capsys):
        # z parses fine under the declared signal list but the CSV header
        # does not carry it, so the data is unusable for this formula.
        code = cli.main(
            ["oracle", "-f", "z > 0", "--trace", csv_path, "--signals", "x,z"]
        )
        assert code == cli.EXIT_DATA
        assert "z" in capsys.readouterr().err


class TestDeclaredSignals:
    """A declared signal list obeys the name rule of a CSV header in either
    trace format, with the same message from `check` and `oracle`: an empty
    name is refused before the formula parses, the rest of the rule is
    checked once it has parsed, and all of it before the first row."""

    TRACES = {"csv": "x\n1\n", "jsonl": '{"x": 1}\n'}

    @pytest.mark.parametrize(
        "formula,signals,exit_code,err",
        [
            ("x > 0", "x,x", cli.EXIT_DATA, "trace error: signal list: duplicate signal name\n"),
            ("x > 0", "x,time", cli.EXIT_DATA,
             "trace error: signal list: 'time' looks like a time axis; traces are "
             "positional (row k is tick k), so every name must be a signal\n"),
            ("x > 0", "x,", cli.EXIT_DATA, "trace error: signal list: empty signal name\n"),
            # No formula parses against a list of empty names, and the
            # formula's unknown-signal error would hide the list's.
            ("x > 0", "", cli.EXIT_DATA, "trace error: signal list: empty signal name\n"),
            ("x > 0", ",", cli.EXIT_DATA, "trace error: signal list: empty signal name\n"),
            ("x >", "x,", cli.EXIT_DATA, "trace error: signal list: empty signal name\n"),
            ("x >", "x,x", cli.EXIT_USAGE,
             "formula error: expected a number or signal name, found 'end of input' (column 4)\n"),
        ],
        ids=[
            "duplicate", "time-axis", "empty-part", "empty-list", "two-empty-parts",
            "empty-name-before-formula-error", "formula-error-first",
        ],
    )
    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize("trace_format", ["csv", "jsonl"])
    def test_bad_list_stops_before_the_first_row(
        self, tmp_path, capsys, trace_format, command, formula, signals, exit_code, err
    ):
        path = tmp_path / f"trace.{trace_format}"
        path.write_text(self.TRACES[trace_format])
        code = cli.main([command, "-f", formula, "--signals", signals, "--trace", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (exit_code, "", err)


class TestBlankLineWarnings:
    """A skipped blank line is one `WARNING: skipping blank line N` line on
    stderr, from `check` and `oracle`, on a path and on stdin, though
    `logging` loads only at the first warning; the verdicts and the exit
    code are those of the trace without the blank lines."""

    TRACES = {
        "blank-rows.csv": ("x\n1\n\n2\n\n", [3, 5]),
        "blank-head.csv": ("\n\nx\n1\n2\n", [1, 2]),
        "blank-line.jsonl": ('{"x": 1}\n\n{"x": 2}\n', [2]),
    }
    OUT = "tick=0 verdict=T pos=1 neg=0\ntick=1 verdict=T pos=1 neg=0\n"

    @staticmethod
    def warnings(lines: list[int]) -> str:
        return "".join(f"WARNING: skipping blank line {n}\n" for n in lines)

    @pytest.mark.parametrize("name", TRACES)
    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_each_blank_line_is_one_warning(self, tmp_path, name, command, source):
        text, lines = self.TRACES[name]
        path = tmp_path / name
        path.write_text(text)
        trace, stdin = (str(path), b"") if source == "path" else ("-", text.encode())
        proc = spawn_cli(command, "-f", "x > 0", "--trace", trace)
        out, err = proc.communicate(stdin, timeout=60)
        assert (proc.returncode, out.decode(), err.decode()) == (cli.EXIT_TRUE, self.OUT, self.warnings(lines))

    def test_calls_in_one_process_print_each_warning_once(self, tmp_path):
        paths, expected = [], ""
        for name, (text, lines) in self.TRACES.items():
            (tmp_path / name).write_text(text)
            for command in ("check", "oracle"):
                paths += [command, str(tmp_path / name)]
                expected += self.warnings(lines)
        code = (
            "import sys\n"
            "from stlobs import cli\n"
            "args = sys.argv[1:]\n"
            "for command, path in zip(args[::2], args[1::2]):\n"
            "    assert cli.main([command, '-f', 'x > 0', '--trace', path]) == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code, *paths], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, self.OUT * len(paths[::2]), expected)


class TestFormulaFile:
    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_bytes_that_are_not_utf8_read_as_with_f(self, tmp_path, csv_path, command):
        # Both reach the parser as the same text, a lone surrogate in place
        # of the byte, which it rejects with exit 64.
        data = b"x > 0 & x > \xff"
        formula = tmp_path / "f.stl"
        formula.write_bytes(data)
        results = []
        for args in (["-f", os.fsdecode(data)], ["--formula-file", str(formula)]):
            proc = spawn_cli(command, *args, "--trace", csv_path)
            out, err = proc.communicate(b"", timeout=60)
            results.append((proc.returncode, out, err))
        assert results[0] == results[1]
        assert results[0] == (cli.EXIT_USAGE, b"", b"formula error: unexpected character '\\udcff' (column 13)\n")


class TestSameBytesFromFileAndStdin:
    """A trace's bytes read the same from a path and from stdin: one newline
    rule (a line ends at \\n, \\r or \\r\\n) and one decoding (a byte that is
    not UTF-8 is a lone surrogate), and bad bytes end in exit 65, not 70."""

    @pytest.mark.parametrize(
        "data,exit_code,err",
        [
            (b"x\n1\n\xff\n", cli.EXIT_DATA, "trace error: line 3, column 1: not a number: '\\udcff'\n"),
            (b"x\r1\r2\r", cli.EXIT_TRUE, ""),
            (b"x\r\n1\r\n-1\r\n", cli.EXIT_TRUE, ""),
            (b'{"x": 1}\r{"x": -1}\r', cli.EXIT_TRUE, ""),
            (b'{"x": 1}\n{"x": \xff}\n', cli.EXIT_DATA, None),
            (b"x\n1\n\x00\n", cli.EXIT_DATA, None),  # csv.Error before Python 3.11
            (b"x\n" + b"1" * 200_000 + b"\n", cli.EXIT_DATA,
             "trace error: line 2: field larger than field limit (131072)\n"),
        ],
        ids=["bad-utf8", "cr-csv", "crlf-csv", "cr-jsonl", "bad-utf8-jsonl", "nul", "long-field"],
    )
    def test_path_and_stdin_agree(self, tmp_path, data, exit_code, err):
        path = tmp_path / "trace"
        path.write_bytes(data)
        results = {}
        for command in ("check", "oracle"):
            for trace, stdin in ((str(path), b""), ("-", data)):
                proc = spawn_cli(command, "-f", "x > 0", "--trace", trace)
                out, error = proc.communicate(stdin, timeout=60)
                results[command, trace] = (proc.returncode, out.decode(), error.decode())
            assert results[command, str(path)] == results[command, "-"]
        check, oracle = results["check", "-"], results["oracle", "-"]
        assert check[0] == oracle[0] == exit_code
        assert check[2] == oracle[2]
        if err is not None:
            assert check[2] == err
        if exit_code == cli.EXIT_TRUE:
            assert check[1] == oracle[1] == "tick=0 verdict=T pos=1 neg=0\ntick=1 verdict=T pos=1 neg=0\n"

    @pytest.mark.parametrize("command", ["check", "oracle"])
    def test_a_strict_stdin_reads_a_bad_byte_as_a_file_does(self, tmp_path, command):
        # A "strict" stdin error handler would end the read at the byte with
        # a UnicodeDecodeError (exit 70); stdin reads it as a file does.
        path = tmp_path / "trace.csv"
        path.write_bytes(b"x\n1\n\xff\n")
        results = []
        for trace, stdin in ((str(path), b""), ("-", path.read_bytes())):
            proc = spawn_cli(command, "-f", "x > 0", "--trace", trace, PYTHONIOENCODING="utf-8:strict")
            out, err = proc.communicate(stdin, timeout=60)
            results.append((proc.returncode, out, err))
        assert results[0] == results[1]
        assert results[0][0] == cli.EXIT_DATA
        assert results[0][2] == b"trace error: line 3, column 1: not a number: '\\udcff'\n"

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.sampled_from([b"x,y\n1,2\n", b'{"x": 1, "y": 2}\n']),
        st.lists(
            st.sampled_from(
                [b"0", b"1", b"9", b",", b".", b"\r", b"\n", b"\r\n", b"{", b'"', b"\xff",
                 b"\x00", b"nan", b"1e999"]
            ),
            max_size=20,
        ),
    )
    def test_random_bytes_on_a_path(self, tmp_path, prefix, pieces):
        """In process, on a path: every input ends in a documented exit, and
        check and oracle agree on its code and on stderr."""
        path = tmp_path / "trace"
        path.write_bytes(prefix + b"".join(pieces))
        results = []
        for command in ("check", "oracle"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "-f", "x > 0 | y > 1", "--trace", str(path)])
            results.append((code, err.getvalue()))
        assert results[0] == results[1]
        assert results[0][0] in (cli.EXIT_TRUE, cli.EXIT_FALSE, cli.EXIT_UNKNOWN, cli.EXIT_USAGE, cli.EXIT_DATA)


class TestImports:
    """`check` loads only what a check runs: the oracle, conformance and
    Lustre modules, `dataclasses` with `inspect`, `Trace`, `typing` and
    `pathlib` load on first use, `json` at the first JSONL line and
    `logging` at the first warning. The command line is read without an
    argument parser, so neither `argparse` nor what it loads (`gettext`,
    `locale`, `shutil`) loads at all, and help text loads only to be
    printed."""

    DEFERRED = (
        "dataclasses",
        "inspect",
        "stlobs.conformance",
        "stlobs.helptext",
        "stlobs.lustregen",
        "stlobs.oracle",
    )
    ARGUMENT_PARSER = ("argparse", "gettext", "locale", "shutil")
    UNUSED_BY_CSV = ("json", "logging", "pathlib", "typing", "stlobs.trace", *DEFERRED, *ARGUMENT_PARSER)

    def loaded_by(self, statement: str) -> set[str]:
        """Modules that `statement` loads in a fresh interpreter beyond those
        its standard-library imports load there anyway (the set varies
        between Python versions). `-S` keeps site hooks from loading any
        module before the statement runs."""
        code = (
            "import sys\n"
            "import csv, decimal, fractions\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        return set(proc.stdout.splitlines()[-1].split())

    def loaded_by_check(self, tmp_path, name: str, text: str) -> set[str]:
        """Modules that a whole `check` of the trace `text`, named `name`,
        loads, as `loaded_by` counts them."""
        path = tmp_path / name
        path.write_text(text)
        argv = ["check", "-f", "x > 0", "--trace", str(path)]
        return self.loaded_by(f"import stlobs.cli; assert stlobs.cli.main({argv!r}) == 0")

    def test_cli_import_defers_the_other_subcommands(self):
        loaded = self.loaded_by("import stlobs.cli")
        assert "stlobs.monitor" in loaded
        assert loaded.isdisjoint(self.UNUSED_BY_CSV)

    def test_csv_check_loads_only_what_it_runs(self, tmp_path):
        loaded = self.loaded_by_check(tmp_path, "trace.csv", "x,y\n1,2\n3,4\n")
        assert {"stlobs.monitor", "stlobs.traceio"} <= loaded
        assert loaded.isdisjoint(self.UNUSED_BY_CSV)

    def test_jsonl_check_loads_json(self, tmp_path):
        loaded = self.loaded_by_check(tmp_path, "trace.jsonl", '{"x": 1}\n{"x": 2}\n')
        assert "json" in loaded
        assert loaded.isdisjoint(
            {"logging", "pathlib", "typing", "stlobs.trace", *self.DEFERRED, *self.ARGUMENT_PARSER}
        )

    @pytest.mark.parametrize(
        "name,text", [("trace.csv", "x\n1\n\n2\n"), ("trace.jsonl", '{"x": 1}\n\n{"x": 2}\n')]
    )
    def test_a_blank_line_loads_logging(self, tmp_path, name, text):
        assert "logging" in self.loaded_by_check(tmp_path, name, text)

    def test_first_use_of_a_lazy_name_loads_its_module(self):
        loaded = self.loaded_by("import stlobs; stlobs.three_valued_eval")
        assert "stlobs.oracle" in loaded
        assert loaded.isdisjoint({"stlobs.conformance", "stlobs.lustregen"})

    def test_lazy_names_resolve(self):
        from stlobs import conformance, lustregen, oracle, trace

        assert stlobs.Trace is trace.Trace
        assert stlobs.differential_sweep is conformance.differential_sweep
        assert stlobs.emit_units is lustregen.emit_units
        assert stlobs.three_valued_eval is oracle.three_valued_eval
        with pytest.raises(AttributeError, match="no_such_name"):
            stlobs.no_such_name

    def test_star_import_binds_all_and_dir_lists_it(self):
        namespace: dict = {}
        exec("from stlobs import *", namespace)
        assert set(stlobs.__all__) <= set(namespace)
        assert set(stlobs.__all__) <= set(dir(stlobs))


class TestSelfcheck:
    def test_small_run_passes(self, capsys):
        code = cli.main(["selfcheck", "--max-b", "1", "--cases", "20"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_TRUE
        assert out.count("PASS") == 3

    @pytest.mark.parametrize(
        "option,value",
        [("--max-b", "0"), ("--max-b", "-3"), ("--cases", "0"), ("--cases", "-5")],
    )
    def test_non_positive_sizes_are_usage_errors(self, option, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["selfcheck", option, value])
        assert excinfo.value.code == cli.EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err

    def test_json_output(self, capsys):
        code = cli.main(["selfcheck", "--max-b", "1", "--cases", "10", "--json"])
        assert code == cli.EXIT_TRUE
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"sweep", "induction", "properties"}
        assert payload["sweep"]["failures"] == []

    def test_max_b_beyond_the_enumeration_cap_is_a_usage_error(self, capsys):
        # Until's traces at --max-b 8 are 4**11, beyond the 2**20 cap: refused
        # before any suite runs, with no report.
        code = cli.main(["selfcheck", "--max-b", "8", "--cases", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == (
            "stlobs selfcheck: error: argument --max-b: "
            "4194304 traces for 2 atoms x 11 ticks exceeds cap 1048576\n"
        )

    def test_max_b_at_the_enumeration_cap_runs(self, monkeypatch, capsys):
        # 4**10 traces are the cap itself; the walks are stubbed out, so
        # only the refusal is under test.
        from stlobs import conformance

        monkeypatch.setattr(conformance, "_walk", lambda *args, **kwargs: ([], 0))
        assert cli.main(["selfcheck", "--max-b", "7", "--cases", "1"]) == cli.EXIT_TRUE
        assert capsys.readouterr().out.count("PASS") == 3


class TestEmitLustre:
    def test_writes_units(self, tmp_path, capsys):
        out_dir = tmp_path / "lus"
        code = cli.main(["emit-lustre", "--out-dir", str(out_dir)])
        assert code == cli.EXIT_TRUE
        assert len(list(out_dir.glob("*.lus"))) == 4
        assert capsys.readouterr().out.count("wrote ") == 4

    def test_with_proofs_writes_ten(self, tmp_path):
        out_dir = tmp_path / "lus"
        cli.main(["emit-lustre", "--out-dir", str(out_dir), "--with-proofs"])
        assert len(list(out_dir.glob("*.lus"))) == 10

    def test_checker_skip_is_not_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("STLOBS_CHECKER", raising=False)
        monkeypatch.setenv("PATH", "")
        code = cli.main(
            ["emit-lustre", "--out-dir", str(tmp_path / "lus"), "--run-checker"]
        )
        assert code == cli.EXIT_TRUE
        assert "skipped" in capsys.readouterr().out

    @pytest.mark.parametrize("below, reason", [("", "File exists"), ("x", "Not a directory")])
    def test_out_dir_that_cannot_be_made_is_an_output_error(self, tmp_path, capsys, below, reason):
        # An existing file, or a path under one, is no output directory:
        # exit 73 (sysexits' EX_CANTCREAT), not the input error 66.
        taken = tmp_path / "taken"
        taken.write_text("")
        out_dir = str(taken / below) if below else str(taken)
        code = cli.main(["emit-lustre", "--out-dir", out_dir])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_CANTCREAT, "")
        assert captured.err == f"cannot write {out_dir}: {reason}\n"
