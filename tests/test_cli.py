"""End-to-end command-line tests, run in process through cli.main."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stlobs
from stlobs import cli
from stlobs.traceio import read_verdicts

CSV_TRACE = "x,y\n1,0\n2,0\n3,0\n"


def spawn_cli(*args: str) -> subprocess.Popen:
    """`python -m stlobs.cli *args` from these sources, with piped stdin,
    stdout and stderr, and stdout block-buffered as it is by default."""
    env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
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

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(
            ["check", "-f", "x > 0", "--trace", str(tmp_path / "nope.csv")]
        )
        assert code == cli.EXIT_NOINPUT
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    def test_stdout_gets_one_os_write_per_line(self, csv_path, fmt):
        # In a process of its own, `check` writes to the interpreter's
        # stdout, and each verdict line (and the csv header) is one os.write.
        counting = (
            "import os, sys\n"
            "from stlobs import cli, traceio\n"
            "def os_write(fd, data):\n"
            "    sys.stderr.write(repr(data) + '\\n')\n"
            "    return os.write(fd, data)\n"
            "traceio._os_write = os_write\n"
            "cli.main(sys.argv[1:])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", counting, "check", "-f", "F[0,9] (x > 2)",
             "--trace", csv_path, "--format", fmt],
            capture_output=True, env=env, timeout=60,
        )
        lines = proc.stdout.splitlines(keepends=True)
        assert len(lines) == (4 if fmt == "csv" else 3)
        assert proc.stderr.decode().splitlines() == [repr(line) for line in lines]

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


DEMO_CSV = "speed,brake\n12.0,0\n13.5,0\n15.2,1\n14.9,1\n15.0,0\n"
TIME_KEY = '{"time": 0, "x": 1}\n{"time": 1, "x": -1}\n'


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
        ],
        ids=[
            "csv-in-a-json-file", "jsonl-in-a-csv-file", "blank-lines",
            "empty-declared-jsonl", "stdin", "header-only-csv",
            "declared-signals-no-lines", "time-key", "time-key-declared-jsonl",
            "time-key-outside-signals", "demo-file", "demo-stdin",
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


class TestImports:
    """`check` loads only the monitoring path; the oracle, conformance and
    Lustre modules, and `dataclasses` with `inspect`, load on first use."""

    DEFERRED = ("dataclasses", "inspect", "stlobs.conformance", "stlobs.lustregen", "stlobs.oracle")

    def loaded_by(self, statement: str) -> set[str]:
        """Modules that `statement` loads in a fresh interpreter beyond those
        its standard-library imports load there anyway (the set varies
        between Python versions)."""
        code = (
            "import sys\n"
            "import argparse, csv, decimal, fractions, json, logging\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(stlobs.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
        )
        return set(proc.stdout.split())

    def test_cli_import_defers_the_other_subcommands(self):
        loaded = self.loaded_by("import stlobs.cli")
        assert "stlobs.monitor" in loaded
        assert loaded.isdisjoint(self.DEFERRED)

    def test_first_use_of_a_lazy_name_loads_its_module(self):
        loaded = self.loaded_by("import stlobs; stlobs.three_valued_eval")
        assert "stlobs.oracle" in loaded
        assert loaded.isdisjoint({"stlobs.conformance", "stlobs.lustregen"})

    def test_lazy_names_resolve(self):
        from stlobs import conformance, lustregen, oracle

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
